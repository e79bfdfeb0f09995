(** Binary codec for wire payloads. Multi-byte integers are
    little-endian; readers raise {!Truncated} on short input. *)

exception Truncated

(** {1 Writing} *)

type writer

val writer : ?capacity:int -> unit -> writer
val writer_at : bytes -> pos:int -> writer
(** A writer that fills the buffer in place from [pos]; a put past its
    end raises [Invalid_argument]. Its {!length} counts from byte 0 of
    the buffer. *)

val put_u8 : writer -> int -> unit
val put_u16 : writer -> int -> unit
val put_u32 : writer -> int -> unit
val put_i32 : writer -> int32 -> unit
val put_bytes : writer -> bytes -> unit

val put_sub : writer -> bytes -> pos:int -> len:int -> unit
(** [len] bytes of the buffer from [pos]. *)

val put_string : writer -> string -> unit
(** Length-prefixed (u16). *)

val put_padding : writer -> int -> unit

val length : writer -> int

val contents : writer -> bytes
(** The bytes written so far. A writer created with exactly the capacity
    it was filled to returns its own buffer, without a copy. *)

(** {1 Reading} *)

type reader

val reader : bytes -> reader
val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_bytes : reader -> int -> bytes

val skip : reader -> int -> unit

val rest : reader -> bytes
(** Everything not yet consumed. *)

val position : reader -> int
