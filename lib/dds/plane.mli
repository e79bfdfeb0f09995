(** The skeleton every structure of the suite shares: the home node's
    exported segment and RPC service, the client's data plane over that
    segment, the client's RPC buffers and counters, its operation
    bracket, and the one rule ({!phase}) that runs each phase of an
    operation as DX or as RPC according to the client's {!Kind.t}.

    Allocation: words travel as ints. A READ lands in the scratch
    buffer and is read from there in place, a CAS returns its witness
    unboxed, and {!phase} takes top-level functions and passes the
    phase's words as arguments, so a probe, a CAS or a phase allocates
    only what the remote-memory and call layers do. *)

(** {1 Home node} *)

type home = {
  hnode : Cluster.Node.t;
  hspace : Cluster.Address_space.t;  (** backs the segment from offset 0 *)
  segment : Rmem.Segment.t;
}

val home :
  Rmem.Remote_memory.t ->
  Amsg.t ->
  name:string ->
  len:int ->
  id:int ->
  (home -> Call.service) ->
  home
(** Export a fresh [len]-byte space with full rights and install the
    structure's service for it under handler [id] (one structure of a
    kind per node).  Must run in a simulated process on the home node. *)

val charge : home -> Sim.Time.t -> Sim.Time.t
(** A service's CPU span, for it to return: the RPC stub plus the given
    span, charged once the service has returned. *)

(** {1 Data plane} *)

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  desc : Rmem.Descriptor.t;
  space : Cluster.Address_space.t;
  buf : Rmem.Remote_memory.buffer;
  policy : Rmem.Recovery.policy option;
  cell : int * int * int;
      (** (home, seg, gen) of the imported segment, from its descriptor *)
}

val connect :
  Rmem.Remote_memory.t -> ?policy:Rmem.Recovery.policy -> home -> scratch:int -> t
(** Import the home's segment with full rights and allocate a
    [scratch]-byte local buffer for READ replies and CAS results;
    [policy] governs every meta-instruction under faults. *)

val read : t -> soff:int -> len:int -> unit
(** Blocking remote READ of [len] bytes into the scratch buffer; raises
    like [Rmem.Remote_memory.read_wait] (or retries under the policy). *)

val word : t -> off:int -> int
(** The scratch buffer's 32-bit word at [off], sign-extended. *)

val read_word : t -> soff:int -> int
(** {!read} of one word, then that word. *)

val cas : t -> doff:int -> old_value:int -> new_value:int -> int
(** Blocking remote CAS of sign-extended 32-bit words: returns the
    witness, which equals [old_value] exactly when the swap happened. *)

val write : t -> off:int -> bytes -> unit
(** Remote WRITE: unacknowledged fire-and-forget without a policy,
    write-then-verify with one. *)

(** {1 Clients} *)

type client = {
  kind : Kind.t;
  plane : t;  (** the designated home's: the bracket's cell, the fence *)
  ep : Call.endpoint;
  request : bytes;  (** the RPC path's, rewritten per call *)
  reply : bytes;
  mutable cas_losses : int;  (** DX claim CASes lost to other writers *)
  mutable rpc_fallbacks : int;  (** {!Kind.Hybrid} phases that ended on RPC *)
}

val client : Amsg.t -> kind:Kind.t -> request:int -> t -> client
(** A client of the given kind over [plane], with a [request]-byte
    request buffer and a reply buffer for up to three words. *)

val call : client -> t -> id:int -> int
(** Send the request buffer to [t]'s home under handler [id] and block
    for the reply, which lands in the reply buffer; its length.  Raises
    like {!Call.call}. *)

(** {1 One structuring rule}

    A phase of an operation has a DX and an RPC implementation, each
    answering a result word or a sentinel below.  A [Dx] client runs the
    DX one with an unbounded budget, an [Rpc] client the RPC one, and a
    [Hybrid] client the phase's {!rule}. *)

type rule =
  | Dx_then_rpc
      (** DX with two lost CASes allowed, then RPC if the DX path
          answered {!contended} *)
  | Dx_outright  (** DX, as a [Dx] client *)
  | Rpc_outright  (** RPC, counted as a fallback *)

val exhausted : int
(** A DX or RPC answer: the structure had no room or nothing to give. *)

val contended : int
(** A DX answer: the CAS budget ran out. *)

val phase :
  client ->
  rule ->
  dx:('s -> budget:int -> int -> int -> int) ->
  rpc:('s -> int -> int -> int) ->
  's ->
  int ->
  int ->
  int
(** [phase c rule ~dx ~rpc s a b] runs [dx s ~budget a b] or [rpc s a b]
    as [c]'s kind and [rule] say, and counts one fallback in [c] each
    time a [Hybrid] phase ends on RPC. *)

(** {1 Operation events}

    Every client-facing operation of a structure is bracketed on the
    client's node stream ({!Cluster.Node.event}): [Begin] when it
    starts, [Commit] when it completes, carrying the linearizable
    result as one logical read or write of the structure's designated
    cell ([word] is a byte offset within segment [seg]/generation [gen]
    exported at node [home]). The analysis layer turns each pair into
    one logical history event in place of the physical traffic. *)

type op =
  | Read of int
  | Write of int
  | Sync
      (** a flush/fence: observes nothing the history can constrain,
          but must still be scoped so its physical round trip is
          suppressed *)

type Cluster.Node.event +=
  | Begin
  | Commit of { home : int; seg : int; gen : int; word : int; op : op }

val op_begin : client -> unit
(** A [Begin] on the client's node. *)

val op_commit : client -> word:int -> read:bool -> int -> unit
(** A [Read] (with [read]) or [Write] of the value at [word] of the
    client's cell. *)

val flush : client -> unit
(** Fence the data plane so every deposit the client issued is visible
    remotely, bracketed and committed as a [Sync]; a no-op for [Rpc]
    clients (replies already acknowledge). *)
