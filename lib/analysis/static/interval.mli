(** Closed integer intervals — the abstract domain for segment offsets
    and extents in the static verifier. *)

type t = { lo : int; hi : int }

val make : int -> int -> t
(** Raises [Invalid_argument] when [lo > hi]. *)

val exact : int -> t
val add : t -> t -> t
val mul : t -> t -> t
(** Exact interval product (all four endpoint products considered). *)

val to_string : t -> string
