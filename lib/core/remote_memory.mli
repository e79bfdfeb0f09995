(** The remote network memory model — the paper's primary contribution.

    One value of type {!t} per node plays both protocol roles: it issues
    the WRITE / READ / CAS meta-instructions against imported
    descriptors, and it services incoming requests against locally
    exported segments, charging all trap-and-emulate kernel costs to the
    owning node's CPU.

    Data transfer carries no implicit control transfer: a remote WRITE
    deposits bytes and returns; the destination learns of it only
    through the optional notification machinery. *)

type t

val attach : Cluster.Node.t -> t
(** Install the remote-memory kernel emulation on a node (claims the
    protocol's frame tags). One call per node. *)

val node : t -> Cluster.Node.t

(** {1 Local buffers} *)

type buffer
(** A region of a local address space usable as a READ destination or a
    CAS result slot. *)

val buffer : space:Cluster.Address_space.t -> base:int -> len:int -> buffer

(** {1 Export / import} *)

val export :
  t ->
  space:Cluster.Address_space.t ->
  base:int ->
  len:int ->
  ?id:int ->
  ?policy:Segment.notify_policy ->
  ?rights:Rights.t ->
  name:string ->
  unit ->
  Segment.t
(** Export a memory range: pins its pages, assigns the node's next
    generation number, and makes it remotely accessible under a fresh
    (or caller-chosen well-known) segment id with the given default
    rights. Charges the kernel export path. *)

val revoke : t -> Segment.t -> unit
(** Make a segment unavailable; in-flight requests fail with
    [Bad_segment] or [Stale_generation]. Unpins its pages. *)

val exports : t -> Segment.t list
(** All currently exported (unrevoked) segments, in segment-id order. *)

val import :
  t ->
  remote:Atm.Addr.t ->
  segment_id:int ->
  generation:Generation.t ->
  size:int ->
  ?rights:Rights.t ->
  unit ->
  Descriptor.t
(** Install a descriptor for a remote segment in the kernel table
    (the information normally comes from the name service). *)

(** {1 Meta-instructions}

    All three check the descriptor locally first (staleness, rights,
    bounds), then the local buffer range a READ deposits into or a CAS
    writes its result word to, and raise {!Status.Remote_error} on
    failure (after an [Issue_rejected] event), mirroring the paper's
    local failure of operations on stale segments.

    {b Recovery (§3.7).} Each blocking entry point takes an optional
    [policy]. Without one the operation runs once. With one, each
    attempt uses the policy's timeout, retryable failures (timeouts —
    i.e. loss, corruption, partitions, crashed peers) are reissued after
    exponential backoff, [Stale_generation] / [Bad_segment] failures run
    the policy's revalidator (typically a forced name-service re-import)
    before the next attempt, and terminal failures ([Protection],
    [Bounds], ...) re-raise immediately. Retries are counted in
    {!errors} (categories "retry" / "recovered" / "gave-up" / "refused")
    and in the fault registry when one is attached. A policied call must
    run in a simulated process, and passing [timeout] as well raises
    [Invalid_argument]: the per-attempt timeout is the policy's. *)

val write :
  ?policy:Recovery.policy ->
  t ->
  Descriptor.t ->
  off:int ->
  ?notify:bool ->
  ?swab:bool ->
  bytes ->
  unit
(** Non-blocking remote write. Returns once the data is accepted by the
    network (all sender-side CPU work done); delivery is not
    acknowledged. Large writes are segmented into bursts; [notify]
    applies to the final cell group. [swab] sets the §3.6 heterogeneity
    bit: the receiving side byte-swaps the data words during the FIFO
    copy. The caller parks once per WRITE: its trap, then each frame's
    FIFO copy (and encryption, with a key set) and transmission, are
    one chain of charges at event level, each frame built when the
    charge before it ends, and the caller resumes in the event that
    sends the last.

    With [policy] the call blocks and verifies each attempt: WRITE is
    unacknowledged and a frame lost on the wire produces no nack, so
    each attempt reads the data back (the paper's "read of a known
    value") and reissues on mismatch — at-least-once deposit of
    idempotent data; a [notify] bit may therefore post more than once.
    When the descriptor grants no read rights (or [swab] is set) only a
    nack-flushing fence remains, and silent loss must be caught by an
    application-level read. Assumes no concurrent writer to the same
    region during verification.
    Test-only ?swab: the §3.6 swab operand on WRITE, which no workload mixes
    byte orders to need. *)

val write_sub :
  t -> Descriptor.t -> off:int -> ?notify:bool -> bytes -> pos:int -> len:int ->
  unit
(** {!write} of the [len] bytes of a buffer from [pos], with no policy:
    the frames, events and charges of a write of a buffer holding only
    those bytes. *)

val check_write :
  t -> Descriptor.t -> off:int -> count:int -> unit
(** Run only the local (issue-side) WRITE validation — staleness,
    rights, bounds — raising {!Status.Remote_error} as {!write} would.
    The pipeline engine uses it to fail a staged write at the same
    program point as the synchronous path, instead of at some later
    flush. *)

val write_burst :
  t ->
  Descriptor.t ->
  ?notify:bool ->
  ?swab:bool ->
  Wire.extent list ->
  unit
(** Scatter-gather remote write: every extent (its offset, length and
    the writes it is made of, copied into the frame once each) targets
    the same segment and the whole batch is framed {e once} at the AAL layer
    — one trap, one descriptor check, one FIFO setup per burst group and
    48 payload bytes per cell, amortizing the per-frame costs {!write}
    pays per 40-byte-payload cell. The destination validates every
    extent before depositing any (the burst applies atomically or not at
    all; one nack names the first offending extent) and raises at most
    one notification covering the whole burst. Extents must be
    non-empty; overlapping extents deposit in list order. Raises
    [Invalid_argument] on an empty burst or extent. Like {!write}, the
    caller parks once, until its frame is sent.
    Test-only ?swab: the §3.6 swab operand on the burst form of WRITE, which
    no workload mixes byte orders to need. *)

type completion
(** The completion of one READ issued with {!read}: filled once with
    its final status, and awaited once.
    Completions are recycled: {!await} gives it back to its node's pool
    (once its timeout, if it has one, has fired), so it must not be
    used after. *)

val completed : completion -> bool
(** Filled: {!await} will not block. *)

val await : completion -> Status.t
(** The final status, parking the calling process until it is filled;
    then the completion is released. Raises [Invalid_argument] if
    another process is already blocked on it, or if it was already
    awaited and is still in the pool. *)

val read :
  ?timeout:Sim.Time.t ->
  t ->
  Descriptor.t ->
  soff:int ->
  count:int ->
  dst:buffer ->
  doff:int ->
  unit ->
  completion
(** Non-blocking remote read: data is deposited into [dst] as reply
    bursts arrive; the completion fills with the final status. The
    caller parks only for the trap, charged at event level. With
    [timeout], it fills with [Timed_out] if the reply has not completed
    in time (late replies are then dropped) — this is what lets a
    pipelined window of reads bound loss without blocking. *)

val read_wait :
  ?timeout:Sim.Time.t ->
  ?policy:Recovery.policy ->
  t ->
  Descriptor.t ->
  soff:int ->
  count:int ->
  dst:buffer ->
  doff:int ->
  ?notify:bool ->
  ?swab:bool ->
  unit ->
  unit
(** Blocking {!read}: raises {!Status.Remote_error} on failure and
    {!Status.Timeout} if [timeout] passes first (late replies are then
    dropped). The caller suspends once per attempt, its trap charged at
    event level; a fill in the trap (a crash) resumes it at the trap's
    end. READ is idempotent, so under [policy] it is reissued blindly.
    With [notify], completion also posts on {!completion_fd}.
    Test-only ?notify: the paper's notify operand on READ, which no workload
    sets. *)

val fence : ?policy:Recovery.policy -> t -> Descriptor.t -> unit
(** Block until every WRITE this node previously issued against the
    descriptor's segment has been deposited: one minimal read round
    trip, sound because links deliver in FIFO order. Raises like
    {!read_wait}; additionally raises {!Status.Remote_error} if the
    destination nacked one of those writes (data was dropped), consuming
    the failure as {!take_write_failure} would. *)

val take_write_failure : t -> Descriptor.t -> Status.t option
(** WRITEs are unacknowledged, but a destination that must {e drop} one
    (stale generation, revoked segment, rights, bounds, write inhibit)
    reports the loss with a negative ack. This returns — and clears —
    the latest such status recorded for the descriptor's
    (remote, segment, generation), or [None] if all writes landed.
    {!fence} consumes it automatically.
    Test-only: the recorded nack before a fence consumes it, which no
    workload reads but through {!fence}. *)

val cas_wait :
  ?policy:Recovery.policy ->
  t ->
  Descriptor.t ->
  doff:int ->
  old_value:int ->
  new_value:int ->
  ?result:buffer * int ->
  unit ->
  int
(** Remote compare-and-swap of a 32-bit word, the values carried as
    ints (sign-extended; only the low 32 bits are sent); nothing is
    boxed per CAS. Blocks (once, as {!read_wait}) and returns the
    witness, which equals [old_value] (as a sign-extended 32-bit word)
    exactly when the swap happened. Under [policy], if a CAS applied but
    its reply was lost, the reissued CAS observes [new_value] and
    reports failure — the usual lost-reply ambiguity; callers must treat
    a witness other than [old_value] as "not won by this call", not
    "nothing happened". When [result] is given, a success/failure word
    is deposited there, as in the paper's CAS signature.
    Test-only ?result: the paper's result operand on CAS, which no workload
    sets. *)

(** {1 Crash and restart (driven by the fault plane)} *)

val crash : t -> unit
(** The node lost its volatile protocol state: every pending READ/CAS
    completion fills with [Timed_out] (in request-id order, for
    deterministic replay) so local waiters unblock, and recorded write
    nacks are forgotten. Pair with {!Cluster.Node.set_down}. *)

val restart_exports : ?preserve:int list -> t -> unit
(** Bring the node's exports back after a crash, each under a fresh
    generation (in segment-id order): requests against pre-crash
    descriptors now fail [Stale_generation] until their holders
    re-import through the name service — the paper's restart-safety
    argument. Segment ids in [preserve] keep their old generation
    (well-known bootstrap segments, whose fixed generations are how
    clerks find the name service at all). Write-inhibit state does not
    survive; notification fds and page pins do. *)

(** {1 Notification and roles} *)

val completion_fd : t -> Notification.t
(** Where READ completions with the notify bit are posted on the
    requesting node. (WRITE notifications post on the destination
    segment's own descriptor.) *)

val set_server_role : t -> unit
(** Account request service as "data reception" and replies as
    "data reply" — the Figure 3 breakdown for a server node. *)

val set_crypto : t -> Crypto.t option -> unit
(** Enable link encryption (§3.5): data payloads are transformed and the
    per-word cost charged on both send and receive. Both endpoints must
    enable the same key, or receivers observe ciphertext — exactly the
    property encryption is for. *)

(** {1 Events}

    What this layer emits on its node's stream ({!Cluster.Node.event}),
    built only while someone subscribes: every issued, served and
    rejected meta-instruction, exports, write nacks and the outcomes of
    policy-driven recovery. *)

type Cluster.Node.event +=
  | Exported of Segment.t
  | Issued of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      notify : bool;
      policied : bool;
          (** issued from inside a {!Recovery.policy} execution — the
              unbounded-retry lint keys on this *)
      cas : (int32 * int32) option;
          (** CAS only: the (expected, desired) argument pair, so a
              history checker can reconstruct the operation's semantics
              without reading the wire *)
    }  (** Local validation passed; the request is going on the wire. *)
  | Issue_rejected of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      status : Status.t;
    }  (** Local validation failed; {!Status.Remote_error} follows. *)
  | Served of {
      op : Rights.op;
      src : Atm.Addr.t;
      segment : Segment.t;
      off : int;
      count : int;
      notified : bool;
      cas_success : bool option;
    }
      (** An incoming request touched the segment's memory. [notified]
          reflects the segment policy's decision; [cas_success] is set
          for CAS only. *)
  | Serve_rejected of {
      op : Rights.op;
      src : Atm.Addr.t;
      seg : int;
      gen : Generation.t;
      off : int;
      count : int;
      status : Status.t;
    }  (** An incoming request was refused before touching memory. *)
  | Nacked of { src : Atm.Addr.t; nack : Wire.write_nack }
      (** A write nack arrived back at this (issuing) node. *)
  | Completed of {
      op : Rights.op;
      desc : Descriptor.t;
      off : int;
      count : int;
      status : Status.t;
      cas_success : bool option;
    }
      (** A READ or CAS reply filled its completion at this (issuing)
          node — the issuer now knows the serve happened, and (links
          being FIFO) that every earlier request it sent the same remote
          was processed. Not emitted for local timeouts. *)
  | Retried  (** A policy reissues a failed attempt after its backoff. *)
  | Recovered of { seg : int; op : string; elapsed : Sim.Time.t }
      (** A policied [op] ("WRITE", "READ", ...) on segment [seg]
          succeeded after retrying; [elapsed] runs from its first issue. *)
  | Gave_up  (** A policy stopped retrying and re-raised the failure. *)
  | Refused
      (** A policy's revalidator refused a stale descriptor (the name no
          longer maps to this segment), and the failure was re-raised. *)
  | Revalidated
      (** A policy ran its revalidator on a stale-descriptor failure. *)


val stream_key : Descriptor.t -> int
(** The descriptor's (remote node, segment id, generation) as one int,
    [remote lsl 24 lor segment lsl 16 lor generation]: segment ids are 8
    bits and generations 16, so the ints order as the triples do. *)

(** {1 Statistics} *)

val ops : t -> Metrics.Account.t
val data_bytes : t -> Metrics.Account.t
val errors : t -> Metrics.Account.t

val inflight : t -> int
(** READ/CAS requests this node has issued whose replies have not yet
    arrived (or timed out) — an instantaneous gauge for the telemetry
    sampler. *)

val notification_backlog : t -> int
(** Notification records posted but not yet consumed across this node's
    completion descriptor and every exported segment's descriptor — the
    per-node control-transfer backlog gauge. *)
