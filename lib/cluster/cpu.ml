(* A node's processor: a FIFO resource whose holders consume simulated
   time, with every consumption attributed to a named category.

   The per-category totals are the raw material of the paper's Figure 3
   (server CPU broken into data reception / control transfer / procedure
   invocation / data reply) and of the "50% server load" headline. *)

type t = {
  resource : Sim.Resource.t;
  account : Metrics.Account.t;
  mutable busy : Sim.Time.t;
}

(* Category names used across the system; keeping them here avoids
   spelling drift between producers and the experiments that read them. *)
let cat_data_reception = "data reception"
let cat_data_reply = "data reply"
let cat_control_transfer = "control transfer"
let cat_procedure = "procedure invocation"
let cat_emulation = "emulation"
let cat_client = "client"

let create ?(name = "cpu") () =
  {
    resource = Sim.Resource.create ~name ();
    account = Metrics.Account.create ~name ();
    busy = Sim.Time.zero;
  }

let use t ~category duration =
  if duration < 0 then invalid_arg "Cpu.use: negative duration";
  (* [Resource.with_resource] inlined: its closure would be allocated on
     every charge. *)
  Sim.Resource.acquire t.resource;
  match
    Sim.Proc.wait duration;
    t.busy <- Sim.Time.add t.busy duration;
    Metrics.Account.add_us_of_ns t.account ~category (Sim.Time.to_ns duration)
  with
  | () -> Sim.Resource.release t.resource
  | exception exn ->
      Sim.Resource.release t.resource;
      raise exn

let busy_time t = t.busy
let account t = t.account

let utilization t ~window =
  if Sim.Time.equal window Sim.Time.zero then 0.
  else Sim.Time.to_us t.busy /. Sim.Time.to_us window

let reset_accounting t =
  Metrics.Account.reset t.account;
  t.busy <- Sim.Time.zero
