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

(** {1 Addressing (identical on clerk and server)} *)

(** Pure, usable without a local instance — how a clerk computes
    offsets inside the server's cache segment. *)

val offset_of_key_cfg : config -> key1:int -> key2:int -> int

(** {1 Owner-side operations} *)

val install : t -> key1:int -> key2:int -> bytes -> unit

val install_from :
  t -> key1:int -> key2:int -> bytes -> pos:int -> len:int -> unit
(** {!install} of the [len] bytes of the buffer from [pos]. *)

val install_with :
  t -> key1:int -> key2:int -> len:int ->
  (Cluster.Address_space.t -> addr:int -> unit) -> unit
(** {!install} of a [len]-byte payload that [fill space ~addr] stores
    itself at [addr] of the cache's space, between the header and the
    valid flag. *)

val invalidate : t -> key1:int -> key2:int -> unit
val lookup_local : t -> key1:int -> key2:int -> bytes option
(** The payload of a usable slot ({!payload_length}), copied once. *)

(** {1 Remote-access helpers} *)

val miss : int
(** [-1]: {!payload_length}'s answer for an unusable slot. *)

val payload_length :
  config -> Cluster.Address_space.t -> addr:int -> key1:int -> key2:int ->
  len:int -> int
(** Validate the slot image at [addr] in place, allocating nothing: flag
    valid, keys matching, stored length within [0, payload_bytes]. The
    usable payload length, at most [len], or {!miss}. *)

val header : key1:int -> key2:int -> len:int -> bytes
(** A valid header for a slot pushed into a remote cache, written after
    its payload. *)
