(** The (N,N)-atomic register: majority-quorum read/write (ABD) over an
    odd set of single-cell replicas, in all three structurings.

    Every replica exports one 8-byte cell — a packed {!Tag} word and the
    value word.  Writes collect the highest tag from a majority, bump
    the timestamp with their own rank as tie-break, and push the new
    pair; reads adopt the highest collected pair and write it back until
    a majority is known to hold it, which is what makes reads atomic
    (no new/old inversion).  The seeded model-checking variant is this
    client with [~write_back:false].

    - [Dx] collects with one parallel remote-READ round and stores with
      a CAS-claimed ({!Tag.busy_for}) conditional store per replica.
    - [Rpc] runs both phases as per-replica GET/SET calls.
    - [Hybrid] collects over the data plane and stores over RPC
      ({!Plane.phase}: collect DX outright, store RPC outright). *)

(** {1 Replicas} *)

type replica

val replica : rmem:Rmem.Remote_memory.t -> amsg:Amsg.t -> unit -> replica
(** Export this node's replica cell and install its GET/SET service
    under a fixed well-known handler id (one replica per node).  Must
    run in a simulated process. *)

val replica_node : replica -> Cluster.Node.t

val replica_space : replica -> Cluster.Address_space.t
(** The address space backing the cell — lets tests inspect a replica's
    final (tag, value) words directly. *)

val replica_segment : replica -> Rmem.Segment.t

(** {1 Clients} *)

type t

val client :
  rmem:Rmem.Remote_memory.t ->
  amsg:Amsg.t ->
  kind:Kind.t ->
  rank:int ->
  ?policy:Rmem.Recovery.policy ->
  ?write_back:bool ->
  ?quorum:int list ->
  replica array ->
  t
(** Import every replica cell.  [rank] must be unique among concurrent
    writers (it tie-breaks equal timestamps and brands the DX claim
    sentinel).  [write_back:false] disables the read's write-back phase
    — the seeded protocol bug.  [quorum] restricts the client to a
    subset of replica indices (at least a majority of the full set):
    the deterministic model of a client that can reach only some
    replicas, which is exactly the adversarial corner the write-back
    phase exists for.
    Test-only ?policy: the DX path under loss, which runs only under a §3.7
    recovery policy; no campaign loses frames on it. *)

val read : t -> int32
(** Atomic read: collect from a majority, adopt the highest pair, write
    it back until a majority holds it. *)

val write : t -> int32 -> Tag.t
(** Atomic write; returns the tag it installed. *)

val cas_losses : t -> int
(** DX store claims lost to concurrent writers. *)

val rpc_fallbacks : t -> int
(** [Hybrid] phases that ended on RPC, one per phase ({!Plane.phase}).
    The register's store phase runs on RPC outright, so this counts
    every store phase: one per write, and one per read that writes
    back. *)
