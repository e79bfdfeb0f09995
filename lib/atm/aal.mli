(** ATM adaptation-layer arithmetic: how many cells, wire bytes and
    programmed-I/O words a frame of a given payload length costs. *)

val cell_payload_bytes : int
(** 48: payload bytes per ATM cell. *)

val cell_wire_bytes : int
(** 53: bytes per cell on the wire (5-byte header + payload). *)

val cells_of_len : int -> int
(** Cells needed for a frame of the given payload length. A frame that
    fits one payload is a single cell; larger frames pay an AAL5-style
    8-byte trailer. The empty frame still costs one cell. *)

val wire_bytes_of_len : int -> int

val words_of_len : int -> int
(** 32-bit words touched by programmed I/O to copy [len] bytes. *)

val checksum : bytes -> int
(** The modeled AAL5 trailer CRC over a frame payload, computed over
    32-bit words, 16 bytes per step in four lanes: any change confined
    to one word (so any single corrupted byte or flipped bit) changes
    it. Allocates nothing. Free in simulated time. *)
