(* FIFO mutual-exclusion resources.

   Models a serially reusable piece of hardware (a CPU, a FIFO port):
   one holder at a time, waiters served in arrival order. *)

type t = {
  name : string;
  mutable busy : bool;
  waiters : (unit -> unit) Queue.t;
  parking : unit Proc.parking; (* built once: a busy CPU is contended per charge *)
  mutable acquisitions : int;
  mutable contended : int;
}

let create ?(name = "resource") () =
  let waiters = Queue.create () in
  {
    name;
    busy = false;
    waiters;
    parking =
      Proc.parking ~resource:(Engine.Quoted ("resource", name))
        (fun resume -> Queue.push resume waiters);
    acquisitions = 0;
    contended = 0;
  }

let name t = t.name

let is_busy t = t.busy

let acquisitions t = t.acquisitions

let contended t = t.contended

let acquire t =
  t.acquisitions <- t.acquisitions + 1;
  if not t.busy then t.busy <- true
  else begin
    t.contended <- t.contended + 1;
    Proc.park t.parking
  end

let release t =
  if not t.busy then invalid_arg "Resource.release: not held";
  if Queue.is_empty t.waiters then t.busy <- false
  else
    (* Hand the resource directly to the next waiter; [busy] stays set. *)
    let resume = Queue.pop t.waiters in
    resume ()

let with_resource t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception exn ->
      release t;
      raise exn
