(** The reconciler: the sharded name service's control plane.

    One low-QPS process owns the shard map. It mirrors every shard's
    registry locally, applies registrations to the mirror, and pushes
    affected 64-byte slots to the owning shard segments with remote
    WRITEs — the data plane clients read has a single writer, and
    lookups stay pure data transfer.

    Publication is fence-then-doorbell: migrated slots are written and
    FENCEd at the destination shard (a different exporter than the map
    host), the map body is written, and the epoch word goes last with
    the notify bit. Migrated records are tombstoned in the old owner
    only after the new map is out, so a client holding either epoch
    finds every record somewhere its map points. *)

type t

type verdict = Balanced | Split of int  (** the new shard's id *)

val request_segment_name : string
(** ["shard.req"] — registration inbox, one slot per client address. *)

val load_segment_name : string
(** ["shard.load"] — per-client lookup-count rows, one per address. *)

val request_slot_bytes : int
(** [[reply offset 4][record 64][pad]] = 80, in the slot of the
    requester's network address. *)

val load_row_bytes : int
(** [[epoch 4][pad 4][per-entry-index counts]]; rows from other epochs
    are ignored. *)

val create :
  ?slots:int ->
  ?max_clients:int ->
  ?policy:Rmem.Recovery.policy ->
  ?pace:Sim.Time.t ->
  map_clerk:Clerk.t ->
  hosts:Clerk.t array ->
  Clerk.t ->
  t
(** Export the request/load segments on the reconciler's node and the
    map segment via [map_clerk]'s node, place one initial shard covering
    the whole bucket space on the first host, and publish epoch 1. Call
    from within a process. [slots] is registry slots per shard (default
    {!Bootstrap.default_slots}); [max_clients] bounds client addresses
    (default 128); [policy] runs every remote operation under recovery
    (write-verify — required for convergence under loss); [pace] spaces
    the background migration writes of a split or merge so foreground
    probes interleave instead of queueing behind the whole burst.

    Also pre-exports one spare shard segment per host: segment export
    pins pages synchronously on the exporting host's CPU, so a split
    that exported its destination segment in-line would block that
    host's foreground probes for the whole pinning burst. Splits draw
    from the pool and restock it only after the source-side retire
    completes.
    Test-only ?policy: the reconciler under loss, which runs only under a
    recovery policy; no campaign loses frames on it. *)

val serve_registrations : t -> unit
(** Serve the request segment ({!Rmem.Hybrid.serve}): each request
    runs in a pooled worker ({!Sim.Pool}), starting at the instant a
    spawned one would, that inserts the record, pushes and fences the
    shard slot, and replies into the requester clerk's scratch ring. *)

val split : t -> int -> int option
(** Split a shard at its range midpoint onto the next host: copy + fence
    the upper half, publish, then tombstone the migrated records in the
    source. Returns the new shard's id; [None] on an unknown id or a
    single-bucket shard. *)

val merge : t -> (int * int) option
(** Merge the adjacent pair with the fewest live records: absorb the
    right shard into the left, publish, then revoke the absorbed
    segment (stale client descriptors fail cleanly and heal by map
    refetch). Returns [(absorbed, into)].
    Test-only: merging, which no campaign does; the campaigns only split. *)

val rebalance_once : t -> verdict
(** Read the load rows for the current epoch and split the hottest
    shard if it draws at least twice its fair share. *)

val shard_id_of_bucket : t -> int -> int option
(** The id of the shard currently owning a bucket — what {!split}
    wants when the caller has picked a bucket, not an id. *)

val map : t -> Shardmap.t
(** The authoritative map (what the next publish would carry). *)

val epoch : t -> int
val shard_count : t -> int

val live : t -> int
(** Live records across all shard mirrors. *)

val well_formed : t -> bool
(** Every mirror structurally consistent and the ranges total.
    Test-only: mirror consistency, which no report shows. *)
