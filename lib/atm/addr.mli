(** Node addresses on the cluster network. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
