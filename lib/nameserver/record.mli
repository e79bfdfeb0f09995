(** Fixed-size (64-byte) registry records with a flag word written
    last, so remote readers see a slot either not yet a record or
    complete. This module lays out the bytes; what each flag means to a
    reader is {!Registry.classify}, the one slot rule. *)

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
(** A free slot. *)

val flag_valid : int
(** A complete record. *)

val flag_moved : int
(** A tombstone: the record was deleted, or migrated to another shard
    segment (its spare bytes may then carry a {!forward}). *)

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

val encode_into : t -> bytes -> pos:int -> unit
(** {!encode}'s [slot_bytes] image, written in place at [pos]. *)

val holds_at : Cluster.Address_space.t -> addr:int -> string -> bool
(** Whether the name field of the slot image at [addr], read in place,
    holds exactly the name. The flag word is not read. *)

val body_at : Cluster.Address_space.t -> addr:int -> string -> t
(** The record of the slot image at [addr], read in place, under the
    name {!holds_at} matched: the record shares the caller's string. *)

val name_at : Cluster.Address_space.t -> addr:int -> string
(** The name field of the slot image at [addr], up to its first NUL.
    The flag word is not read. *)

val decode_at : Cluster.Address_space.t -> addr:int -> t option
(** The record the {!encode} image at [addr] carries, read in place;
    [None] for an image without the valid flag. *)

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

val forward_at : Cluster.Address_space.t -> addr:int -> forward option
(** The forward a tombstone image at [addr] carries, read in place;
    [None] unless its spare bytes are well formed — a deletion's
    tombstone keeps the old record's bytes, which almost never are, and
    the reader falls back to a map refetch. The flag word is not
    read. *)
