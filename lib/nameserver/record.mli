(** Fixed-size (64-byte) registry records with a valid-flag word written
    last, so remote readers see slots either invalid or complete. *)

type t = {
  name : string;
  node : int;  (** exporter's network address *)
  segment_id : int;
  generation : Rmem.Generation.t;
  size : int;
  rights : Rmem.Rights.t;
}

val slot_bytes : int
(** 64. *)

val flag_invalid : int
val flag_valid : int

val flag_moved : int
(** The sharding layer's tombstone: the record migrated to another shard
    segment. Probe chains skip (rather than end at) a moved slot, and a
    remote reader that meets one knows its shard map may be stale. *)

val make :
  name:string ->
  node:int ->
  segment_id:int ->
  generation:Rmem.Generation.t ->
  size:int ->
  rights:Rmem.Rights.t ->
  t
(** Raises [Invalid_argument] on over-long names or embedded NULs. *)

val fnv_hash : string -> int
(** The hash every clerk uses, so a name lands in the same slot on all
    registries — the paper's single-remote-read optimization. *)

val encode : t -> bytes
val decode : bytes -> t option
(** [None] when the slot is invalid (never exported or deleted). *)

val lookup_at : Cluster.Address_space.t -> addr:int -> string -> t option
(** [decode] of the slot image at [addr] followed by a name comparison,
    read in place: [Some] only for a valid slot holding exactly the
    name, whose record then shares the caller's string. *)

val invalid_slot : unit -> bytes
(** Test-only: the record codec tests. *)

type forward = {
  fwd_epoch : int;  (** the epoch that published the migration *)
  fwd_lo : int;
  fwd_hi : int;  (** inclusive bucket range of the destination shard *)
  fwd_node : int;
  fwd_segment_id : int;
  fwd_generation : Rmem.Generation.t;
  fwd_slots : int;
}
(** A forwarding tombstone: a moved slot's spare 60 bytes carry the
    destination shard's coordinates, so a reader that trips on one can
    patch its cached shard map locally and retry against the new owner
    directly — no convoy at the map host after a rebalance. *)

val encode_forward : forward -> bytes
(** A full 64-byte slot image, flag word [flag_moved]. *)

val decode_forward : bytes -> forward option
(** [None] unless the slot is a well-formed forwarding tombstone — in
    particular a bare flag-only tombstone (epoch 0) yields [None] and
    the reader falls back to a map refetch. *)
