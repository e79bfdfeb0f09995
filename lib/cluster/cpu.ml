(* A node's processor: a FIFO resource whose holders consume simulated
   time, with every consumption attributed to a named category.

   The per-category totals are the raw material of the paper's Figure 3
   (server CPU broken into data reception / control transfer / procedure
   invocation / data reply) and of the "50% server load" headline.

   A charge takes two forms with one schedule.  A process's [use]
   acquires the CPU and waits out the span.  A [charge] acquires it for
   a callback waiter (queued behind the processes, in the same FIFO,
   when the CPU is busy), then schedules the charger's prebuilt
   [finish] at the end of the span, where the process's wait would end:
   the same events at the same instants, and no continuation.  What a
   charge needs after its span (its category, span and next step, a
   top-level function applied to the charger's [arg]) waits in the
   charger's fields, so a charge allocates nothing.  Both forms book
   the span in [book].  A parked issuer's trap borrows one ([lend]). *)

type t = {
  resource : Sim.Resource.t;
  account : Metrics.Account.t;
  mutable busy : Sim.Time.t;
}

type 'a charger = {
  cpu : t;
  engine : Sim.Engine.t;
  arg : 'a;
  mutable waiter : Sim.Proc.t; (* its callback begins the span *)
  finish : unit -> unit;
  mutable category : string;
  mutable span : Sim.Time.t;
  mutable next : 'a -> unit;
}

(* Chargers lent one charge each, a stack in [free.(0 .. top - 1)]. *)
type 'a chargers = {
  lcpu : t;
  lengine : Sim.Engine.t;
  who : Sim.Engine.label;
  mutable free : 'a charger array;
  mutable top : int;
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
    account = Metrics.Account.create ();
    busy = Sim.Time.zero;
  }

let book t ~category span =
  t.busy <- Sim.Time.add t.busy span;
  Metrics.Account.add_us_of_ns t.account ~category (Sim.Time.to_ns span)

let use t ~category duration =
  if duration < 0 then invalid_arg "Cpu.use: negative duration";
  (* An acquire/release bracket written out: a bracket taking a closure
     would allocate it on every charge. *)
  Sim.Resource.acquire t.resource;
  match
    Sim.Proc.wait duration;
    book t ~category duration
  with
  | () -> Sim.Resource.release t.resource
  | exception exn ->
      Sim.Resource.release t.resource;
      raise exn

let begin_span c =
  Sim.Engine.schedule_at c.engine
    (Sim.Time.add (Sim.Engine.now c.engine) c.span)
    c.finish

let finish c =
  book c.cpu ~category:c.category c.span;
  Sim.Resource.release c.cpu.resource;
  c.next c.arg

let build t engine who arg ended =
  let rec c =
    { cpu = t; engine; arg; waiter = Sim.Proc.nobody;
      finish = (fun () -> ended c); category = cat_emulation;
      span = Sim.Time.zero; next = ignore }
  in
  c.waiter <- Sim.Proc.callback engine who (fun () -> begin_span c);
  c

let charger t engine who arg = build t engine who arg finish

let charge c ~category span next =
  if span < 0 then invalid_arg "Cpu.charge: negative duration";
  c.category <- category;
  c.span <- span;
  c.next <- next;
  if Sim.Resource.acquire_by c.cpu.resource c.waiter then begin_span c

let chargers t engine who = { lcpu = t; lengine = engine; who; free = [||]; top = 0 }

(* A lent charger's [finish]: back to [p] before [next], which may lend it. *)
let give_back p c =
  book c.cpu ~category:c.category c.span;
  Sim.Resource.release c.cpu.resource;
  if p.top = Array.length p.free then
    p.free <- Array.append p.free (Array.make (p.top + 4) c);
  p.free.(p.top) <- c;
  p.top <- p.top + 1;
  c.next c.arg

let lend p make env ~category span next =
  let c =
    if p.top > 0 then begin
      p.top <- p.top - 1;
      p.free.(p.top)
    end
    else build p.lcpu p.lengine p.who (make env) (give_back p)
  in
  charge c ~category span next;
  c.arg

let busy_time t = t.busy
let account t = t.account

let utilization t ~window =
  if Sim.Time.equal window Sim.Time.zero then 0.
  else Sim.Time.to_us t.busy /. Sim.Time.to_us window

let reset_accounting t =
  Metrics.Account.reset t.account;
  t.busy <- Sim.Time.zero
