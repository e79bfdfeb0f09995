(** Export generation numbers: 16-bit wrapping counters that let kernels
    reject operations on stale segment exports. *)

type t = private int

val initial : t

val next : t -> t
(** Successor, wrapping around 0, which no live export is assigned. *)

val equal : t -> t -> bool
val to_int : t -> int
val of_int : int -> t

val pp : Format.formatter -> t -> unit
