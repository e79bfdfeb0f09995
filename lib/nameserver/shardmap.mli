(** The shard map: the sharded name service's directory.

    Key-hash buckets are carved into contiguous, inclusive, gap-free
    ranges, each owned by one registry shard segment on some node. The
    map serializes into one small exported segment whose first word is a
    generation-numbered epoch: the reconciler publishes body first, then
    the epoch word last with notification (fence-then-doorbell), so a
    fetched map that decodes is trustworthy and a torn fetch fails
    {!decode} and retries. Pure layout and arithmetic — the client and
    control planes agree by construction. *)

type entry = {
  lo : int;
  hi : int;  (** inclusive bucket range *)
  node : int;  (** shard host's network address *)
  segment_id : int;
  generation : Rmem.Generation.t;
  slots : int;  (** registry slots serialized in the shard segment *)
}

type t = { epoch : int; entries : entry list (** sorted by [lo] *) }

val buckets : int
(** 65536 — the bucket space the hash folds into. *)

val bucket_of_name : string -> int
(** {!Record.fnv_hash} folded into the bucket space; identical on every
    client and on the reconciler. *)

val map_name : string
(** ["shard.map"] — the map segment's name-service registration. *)

val header_bytes : int
val entry_bytes : int
val max_entries : int

val segment_bytes : int
(** Fixed size of the map segment (header + [max_entries] entries). *)

val body_off : int
(** Offset of everything but the epoch word: the body is written first,
    the epoch word at offset 0 last — the doorbell. *)

val total : entry list -> bool
(** Sorted, gap-free, covering the whole bucket space. *)

val owner : t -> int -> entry option
(** The entry owning a bucket. *)

val owner_index : t -> int -> int
(** The position in the sorted list of the entry owning a bucket — the
    index load reports are keyed by — or -1 if none does; allocates
    nothing. *)

val entry_at : t -> int -> entry
(** The entry at a position {!owner_index} returned. *)

val encode : t -> bytes
(** The full segment image. Raises [Invalid_argument] past
    [max_entries]. Test-only: a whole-map image at once, which the
    reconciler writes as body then epoch word. *)

val encode_body : t -> bytes
(** The image from [body_off] on — what a publish writes before ringing
    the epoch doorbell. *)

val decode : bytes -> t option
(** [None] on a torn or ill-formed image (bad counts, non-total ranges,
    non-power-of-two slots). *)
