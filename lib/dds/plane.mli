(** The client side of a structure's data-transfer plane: an imported
    descriptor for the home segment plus a private scratch buffer, with
    every meta-instruction optionally run under a recovery policy
    (§3.7).  The DX and hybrid structurings issue all their remote
    operations through this.

    Allocation: words travel as ints. A READ lands in the scratch
    buffer and is read from there in place, and a CAS returns its
    witness unboxed, so a probe or a CAS allocates only what the
    remote-memory layer does for the meta-instruction itself. *)

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  desc : Rmem.Descriptor.t;
  space : Cluster.Address_space.t;
  buf : Rmem.Remote_memory.buffer;
  policy : Rmem.Recovery.policy option;
}

val connect :
  Rmem.Remote_memory.t ->
  ?policy:Rmem.Recovery.policy ->
  remote:Atm.Addr.t ->
  segment_id:int ->
  generation:Rmem.Generation.t ->
  size:int ->
  scratch:int ->
  unit ->
  t
(** Import the home segment with full rights and allocate a [scratch]-
    byte local buffer for READ replies and CAS results. *)

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

val fence : t -> unit
(** Await deposit of all prior WRITEs on this descriptor. *)

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

val begin_op : Cluster.Node.t -> unit
(** A [Begin] on the client's node. *)

val commit :
  Cluster.Node.t -> cell:int * int * int -> word:int -> read:bool -> int -> unit
(** A [Read] (with [read]) or [Write] of the value at [word] of [cell],
    which is (home, seg, gen). *)

val sync : Cluster.Node.t -> cell:int * int * int -> unit
(** A [Sync] at word 0 of [cell]. *)
