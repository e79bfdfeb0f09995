(* FIFO mutual-exclusion resources.

   Models a serially reusable piece of hardware (a CPU, a FIFO port):
   one holder at a time, waiters served in arrival order, processes and
   callback waiters in one queue. *)

type t = {
  mutable busy : bool;
  waiters : unit Proc.sleepers;
  label : Engine.label; (* built once: a busy CPU is contended per charge *)
}

let create ?(name = "resource") () =
  {
    busy = false;
    waiters = Proc.sleepers ();
    label = Engine.Quoted ("resource", name);
  }

(* Take the resource if it is free. *)
let seize t =
  if t.busy then false
  else begin
    t.busy <- true;
    true
  end

let acquire t =
  if not (seize t) then Proc.sleep t.waiters ~resource:t.label ~daemon:false

let acquire_by t waiter =
  seize t
  || begin
       Proc.enqueue t.waiters waiter ~resource:t.label ~daemon:false;
       false
     end

let release t =
  if not t.busy then invalid_arg "Resource.release: not held";
  if Proc.is_empty t.waiters then t.busy <- false
  else
    (* Hand the resource directly to the next waiter; [busy] stays set. *)
    Proc.signal t.waiters
