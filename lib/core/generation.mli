(** Export generation numbers: 16-bit wrapping counters that let kernels
    reject operations on stale segment exports. *)

type t = private int

val invalid : t
(** 0 — never assigned to a live export.
    Test-only: the generation unit tests. *)

val initial : t

val next : t -> t
(** Successor, wrapping around [invalid]. *)

val equal : t -> t -> bool
val to_int : t -> int
val of_int : int -> t
val is_valid : t -> bool
(** Test-only: the generation unit tests. *)

val pp : Format.formatter -> t -> unit
