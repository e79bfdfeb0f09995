(** Distributed MPMC ticket queue in all three structurings.

    Head and tail words advanced by remote CAS, one 8-byte slot per
    ticket ([flag word][value word]) deposited with a single atomic
    WRITE.  Tickets never wrap, so [capacity] bounds the lifetime
    enqueue count and every slot has exactly one writer.

    - [Dx] claims tickets with remote CAS and deposits/polls slots with
      remote WRITEs/READs.
    - [Rpc] ships enqueue/dequeue to the home node over {!Call}.
    - [Hybrid] runs enqueues and dequeues on the DX path with a budget
      of two lost CASes, then RPC ({!Plane.phase}). *)

exception Full

(** {1 Home node} *)

type server

val server :
  rmem:Rmem.Remote_memory.t ->
  amsg:Amsg.t ->
  capacity:int ->
  unit ->
  server
(** Export the queue segment and install the RPC service under a fixed
    well-known handler id (one queue per home node).  Must run in a simulated process
    on the home node. *)

(** {1 Clients} *)

type t

val client :
  rmem:Rmem.Remote_memory.t ->
  amsg:Amsg.t ->
  kind:Kind.t ->
  ?policy:Rmem.Recovery.policy ->
  server ->
  t
(** Test-only ?policy: the DX path under loss, which runs only under a §3.7
    recovery policy; no campaign loses frames on it. *)

val enqueue : t -> int32 -> int
(** Enqueue a value and return its ticket.  Raises {!Full} once the
    lifetime ticket supply is exhausted. *)

val try_dequeue : t -> int32 option
(** Claim and return the head element, or [None] when the queue is
    empty (including when the head ticket's deposit has not committed
    yet — "empty" linearizes before the in-flight enqueue). *)

val dequeue : t -> int32
(** Blocking {!try_dequeue}: polls until an element arrives. *)

val flush : t -> unit
(** Fence the DX plane; a no-op for RPC handles. *)

val cas_losses : t -> int
(** Ticket-claim CASes lost to concurrent clients. *)

val rpc_fallbacks : t -> int
(** [Hybrid] phases that ended on RPC, one per phase ({!Plane.phase}):
    here, enqueues and dequeues whose DX claim lost its CAS budget. *)
