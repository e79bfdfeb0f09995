(** The cache organization shared by server and clerks: direct-mapped
    fixed-slot tables inside segments, with identical hashing on both
    ends so a clerk can compute the exact remote slot offset and fetch
    it with one remote READ.

    A slot is [flag, key1, key2, len, payload]; owners write the flag
    word last, readers validate flag and keys — the paper's
    miss-detection recipe. *)

type config = { slots : int; payload_bytes : int }

type t

val header_bytes : int
(** 16. *)

val slot_bytes : config -> int
val segment_bytes : config -> int

val create : space:Cluster.Address_space.t -> base:int -> config -> t
(** [slots] must be a power of two; [payload_bytes] a word multiple. *)

val config : t -> config
(** Test-only: the tests check client- and server-side slot offsets agree. *)

(** {1 Addressing (identical on clerk and server)} *)

val offset_of_key : t -> key1:int -> key2:int -> int
(** Test-only: the tests check client- and server-side slot offsets agree. *)

(** Pure variants usable without a local instance — how a clerk computes
    offsets inside the server's cache segment. *)

val offset_of_key_cfg : config -> key1:int -> key2:int -> int

(** {1 Owner-side operations} *)

val install : t -> key1:int -> key2:int -> bytes -> unit
val invalidate : t -> key1:int -> key2:int -> unit
val lookup_local : t -> key1:int -> key2:int -> bytes option

(** {1 Remote-access helpers} *)

val decode_slot : bytes -> key1:int -> key2:int -> bytes option
(** Validate a fetched slot image: flag set, keys matching, sane length. *)

val encode_slot : t -> key1:int -> key2:int -> bytes -> bytes
(** A full slot image for pushing into a remote cache of the same
    config. *)
