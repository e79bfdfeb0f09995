(** Distributed open-addressed hash table in all three structurings.

    The name service's probe scheme ({!Probe}) generalized to int32
    key/value pairs: linear probing over [slots] 8-byte slots in one
    exported segment, key word then value word.  Key 0 marks a free
    slot, key -1 a tombstone, and live values are never 0 — so both
    sentinels are rejected as keys, 0 is rejected as a value, and a
    half-inserted slot (key claimed, value not yet deposited) reads as
    absent.

    - [Dx] walks the table with remote READs, claims a slot by CASing
      the key word and deposits the value with a blind WRITE — no home
      CPU beyond trap-and-emulate.
    - [Rpc] ships each operation to the home node over {!Call}.
    - [Hybrid] runs lookups on the DX path outright, and inserts and
      deletes on the DX path with a budget of two lost CASes, then RPC
      ({!Plane.phase}). *)

exception Full

(** {1 Home node} *)

type server

val server :
  rmem:Rmem.Remote_memory.t ->
  amsg:Amsg.t ->
  slots:int ->
  unit ->
  server
(** Export the table segment on [rmem]'s node and install the RPC
    service under a fixed well-known handler id (one table per home
    node).  [slots]
    must be a positive power of two.  Must run in a simulated process
    on the home node. *)

val local_insert : server -> key:int32 -> value:int32 -> bool
(** Home-side insert (also the RPC service body); false when full. *)

(** {1 Hashing} *)

val home_index : slots:int -> int32 -> int
(** The key's home slot — where its probe chain starts on every node.
    Test-only: which keys collide, which a workload meets only by chance. *)

(** {1 Clients} *)

type t

val client :
  rmem:Rmem.Remote_memory.t ->
  amsg:Amsg.t ->
  kind:Kind.t ->
  ?policy:Rmem.Recovery.policy ->
  server ->
  t
(** Import the table segment and build a handle of the given kind.
    [policy] governs the DX path's remote operations under faults.
    Every operation is bracketed by {!Plane.Begin}/{!Plane.Commit} on
    the client's node, with the designated cell being the key's
    {e home} slot value word.
    Test-only ?policy: the DX path under loss, which runs only under a §3.7
    recovery policy; no campaign loses frames on it. *)

val insert : t -> key:int32 -> value:int32 -> unit
(** Insert or overwrite.  Raises {!Full} when the probe chain finds
    neither the key nor a claimable slot, [Invalid_argument] on
    reserved keys/values. *)

val lookup : t -> int32 -> int32 option
val delete : t -> int32 -> bool

val flush : t -> unit
(** Fence the DX plane so every deposit this client issued is visible
    remotely; a no-op for RPC handles (replies already acknowledge).
    Test-only: a client's deposits fenced at a chosen point, which workloads
    leave to their next operation. *)

val cas_losses : t -> int
(** Slot-claim CASes lost to concurrent writers. *)

val rpc_fallbacks : t -> int
(** [Hybrid] phases that ended on RPC, one per phase ({!Plane.phase}):
    here, inserts and deletes whose DX path lost its CAS budget. *)
