(** A span: one timed phase of a meta-instruction's journey through the
    stack. Spans form trees, linked by [trace] (one id per operation)
    and [parent] (the enclosing span's id; 0 marks a root). *)

type t = {
  id : int;
  trace : int;
  parent : int;
  name : string;
  cat : string;
  node : int;  (** network address of the node the span runs on *)
  start : Sim.Time.t;
  mutable finish : Sim.Time.t;
  mutable closed : bool;
  mutable args : (string * string) list;
}

val duration_us : t -> float
val is_root : t -> bool
val arg : t -> string -> string option
val set_arg : t -> string -> string -> unit
