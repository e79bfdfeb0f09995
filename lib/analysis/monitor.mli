(** The dynamic instrumentation hub: subscribes to node event streams
    ({!Cluster.Node.event}: remote-memory, notification, LRPC and
    data-structure events), maintains a vector clock per node agent,
    and records every shared-memory access with its happens-before
    stamps.

    The clock model, briefly: each node is one agent (the simulator's
    cooperative scheduling makes a node's activities sequential). Every
    recorded event ticks the acting agent. An access carries the
    issuer's clock at {e issue} time as its stamp; its memory effect
    becomes a visibility witness only when the issuer can {e know} the
    serve happened — a READ/CAS reply on the same link (FIFO flushes
    earlier writes), or a notification delivered to the destination
    user. Synchronization edges: a successful CAS publishes the
    issuer's issue-time clock into a per-word lock clock at serve and
    joins the previous holder's publication at completion
    (release/acquire); a delivered notification joins the sender's
    stamp into the destination agent. *)

type t

val create : Sim.Engine.t -> t

val attach : t -> Cluster.Node.t -> unit
(** Register the node's agent and subscribe to its stream, before it
    exports anything: remote-memory events, the notification deliveries
    of the segments it exports, LRPC entries (each ticks the agent) and
    {!Dds.Plane} operation brackets (each [Begin]/[Commit] pair becomes
    one logical history event). *)

val local_access :
  t ->
  node:Cluster.Node.t ->
  segment:Rmem.Segment.t ->
  kind:Access.kind ->
  off:int ->
  count:int ->
  ?value:int32 ->
  unit ->
  unit
(** Record a direct touch of exported memory on its home node (the
    address-space loads/stores the stream cannot see). Call it where the
    workload touches the segment. With [value] and a single fully
    covered word, the history records the known word value; without it
    the touched cells record {!History.Unknown}. *)

(** {1 Operation history (linearizability)} *)

val history : t -> History.t
(** The client-observed operation history captured alongside the access
    trace — {!Linearize} checks it. *)

val logical_begin : t -> agent_name:string -> unit
(** Open a {!History.scope_begin} logical-operation scope for an agent
    (names are ["node<addr>"]): its physical operations are suppressed
    until {!logical_commit} replaces them with one logical event. *)

val logical_commit :
  t -> agent_name:string -> cell:History.cell -> op:History.operation -> unit
(** Close the scope with the wrapper's client-facing result. *)

val key_of_segment : home:int -> Rmem.Segment.t -> Access.seg_key
(** The key of [segment] as exported at node address [home]. *)

val declare_sync_word : t -> key:Access.seg_key -> off:int -> unit
(** Mark the aligned word at [off] as a synchronization word: races
    confined to it are exempt (in addition to the inferred CAS-only
    words). *)

(** {1 Results} *)

val accesses : t -> Access.t list
(** All recorded accesses, in recording order. *)

val access_count : t -> int
(** Number of accesses recorded so far (ids are dense from 0). *)

val accesses_from : t -> id:int -> Access.t list
(** Accesses with id at least [id], in recording order — the model
    checker's per-event delta, without rescanning the whole trace. *)

val retry_backoff_floor : Sim.Time.t
(** A failed CAS retried after at least this pause counts as backing
    off; only faster retries extend a consecutive-failure run.
    Test-only: the pause that ends a CAS retry chain, which no report names. *)

val worst_cas_retries : t -> ((string * Access.seg_key * int) * int) list
(** Per (agent, segment, word offset): the longest run of consecutive
    failed CAS attempts with no backoff pause and no intervening
    non-CAS access to the segment by that agent. Sorted. *)

type rejection = {
  site : [ `Issue | `Serve ];
  agent_name : string;  (** the offending issuer *)
  key : Access.seg_key;
  op : Rmem.Rights.op;
  off : int;
  count : int;
  status : Rmem.Status.t;
  time : Sim.Time.t;
}

val rejections : t -> rejection list

val policy_of : t -> Access.seg_key -> Rmem.Segment.notify_policy option
val is_declared_sync : t -> key:Access.seg_key -> off:int -> bool
val agent_count : t -> int
val lrpc_calls : t -> int

