(** Per-process virtual address spaces: sparse, demand-zero, paged byte
    stores. Remote-memory operations move real bytes between these.

    Demand zero: a page materializes on its first touch, by any read,
    write, word access or compare-and-swap, and every byte no write has
    stored reads as zero. A write that covers a whole page it creates
    stores that page's bytes straight from its source, with no zero fill
    first; a partial write fills the rest of a page it creates with
    zeros, and a read creates a zero page.

    Pinning mirrors the paper's application-controlled pinning of the
    pages backing exported segments. *)

exception Fault of { asid : int; addr : int }
(** Raised on negative addresses or lengths. *)

type t

val create : asid:int -> unit -> t
val asid : t -> int
(** Test-only: how many spaces a node made, which no report counts. *)

val page_size : t -> int
(** Test-only: the page size, which accesses that straddle a page boundary
    are sized by. *)

(** {1 Data access} *)

val read : t -> addr:int -> len:int -> bytes
val write : t -> addr:int -> bytes -> unit

val read_into : t -> addr:int -> len:int -> bytes -> pos:int -> unit
(** [read_into t ~addr ~len dst ~pos] copies [len] bytes from [addr] into
    [dst] at [pos]: {!read} without the fresh buffer. *)

val write_from : t -> addr:int -> bytes -> pos:int -> len:int -> unit
(** [write_from t ~addr src ~pos ~len] stores [len] bytes of [src] from
    [pos] at [addr]: {!write} of a sub-range without cutting it out. *)

(** A word is four little-endian bytes, passed as an [int] so that no
    word is boxed across the call. *)

val read_word : t -> addr:int -> int
(** The 32-bit word at [addr], sign-extended: [0xFFFFFFFF] reads as [-1]. *)

val write_word : t -> addr:int -> int -> unit
(** Store the low 32 bits of the value at [addr]. *)

val cas_word : t -> addr:int -> old_value:int -> new_value:int -> bool
(** Atomic compare-and-swap of a 32-bit word, comparing and storing the
    low 32 bits of each value; returns success. *)

(** {1 Pinning} *)

val pin : t -> addr:int -> len:int -> int
(** Pin the pages covering the range; returns how many pages that is.
    Pins nest (a pin count per page). *)

val unpin : t -> addr:int -> len:int -> unit
(** Raises [Invalid_argument] if some covered page is not pinned. *)

val is_pinned : t -> addr:int -> len:int -> bool
val resident_pages : t -> int
(** Test-only: how many pages a space materialized, which no report counts. *)
