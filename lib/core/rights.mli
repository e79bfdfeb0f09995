(** Access rights on a remote memory segment.

    Exporters grant and revoke these selectively per importing node. *)

type t = { read : bool; write : bool; cas : bool }

type op = Read_op | Write_op | Cas_op

val all : t
val read_only : t
val write_only : t
val make : ?read:bool -> ?write:bool -> ?cas:bool -> unit -> t

val allows : t -> op -> bool
val to_code : t -> int
(** 3-bit wire encoding. *)

val of_code : int -> t
(** The rights of the code's low 3 bits, shared: nothing is allocated. *)
