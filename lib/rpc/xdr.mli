(** XDR-style marshaling with control/data byte accounting.

    Each field is classified as protocol machinery ([`Control]) or
    useful payload ([`Data]); per-class totals feed Table 1b. Length
    words and alignment padding always count as control, matching the
    paper's accounting of marshaling overhead. *)

type cls = [ `Control | `Data ]

type t

val create : unit -> t

val int : ?cls:cls -> t -> int -> unit
(** 4-byte unsigned. *)

val bool : t -> bool -> unit

val opaque : ?cls:cls -> t -> bytes -> unit
(** Variable-length opaque (length word + body + padding). Body bytes
    default to [`Data]. *)

val string : ?cls:cls -> t -> string -> unit
(** Like {!opaque} but the body defaults to [`Control] (names, paths). *)

val fixed_opaque : ?cls:cls -> t -> bytes -> unit
(** Fixed-length opaque (no length word), e.g. NFS file handles. *)

val control_bytes : t -> int
val data_bytes : t -> int
val length : t -> int
val contents : t -> bytes

(** {1 Unmarshaling} *)

type reader

val reader : bytes -> reader
val read_int : reader -> int

val read_bool : reader -> bool
val read_opaque : reader -> bytes
val read_string : reader -> string
val read_fixed_opaque : reader -> int -> bytes
