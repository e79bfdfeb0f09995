(* A span: one timed phase of a meta-instruction's journey through the
   stack.  Spans form trees: a root per operation (or per clerk fetch),
   children per layer hop — kernel trap, NIC FIFO copy, wire transit,
   remote serve, notification delivery, reply processing. *)

type t = {
  id : int;
  trace : int;  (** all spans of one operation share a trace id *)
  parent : int;  (** 0 for roots *)
  name : string;
  cat : string;
  node : int;  (** network address of the node the span runs on *)
  start : Sim.Time.t;
  mutable finish : Sim.Time.t;
  mutable closed : bool;
  mutable args : (string * string) list;
}

let duration_us s = Sim.Time.to_us (Sim.Time.diff s.finish s.start)
let is_root s = s.parent = 0
let arg s key = List.assoc_opt key s.args
let set_arg s key value = s.args <- (key, value) :: s.args
