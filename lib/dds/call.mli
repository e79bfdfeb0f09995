(** Request/response RPC over active messages.

    The RPC-structured data structures transfer control with every
    operation: the client sends a request frame whose handler runs the
    operation on the home node's CPU and sends the reply back.  This
    module supplies the request-id plumbing both sides share: per-call
    ids, timeout-driven retransmission on the client, and a per-source
    duplicate cache on the server making retried calls at-most-once.

    Allocation: a call allocates its request frame, the server's copy
    of the request payload, the reply frame and the client's copy of
    the reply payload; ids are ints and each source's cache is a fixed
    16-slot ring. *)

val word : bytes -> int -> int
(** The 32-bit little-endian word at a byte offset, sign-extended: ids
    and the structures' request and reply fields are such words. *)

val set_word : bytes -> int -> int -> unit
(** Store the low 32 bits of an int there. *)

type endpoint
(** Client-side state for one node's active-message plane. *)

val endpoint : Amsg.t -> endpoint
(** The endpoint for a plane, created (and its reply handler registered)
    on first use; subsequent calls return the same endpoint. *)

val timeouts : endpoint -> int
(** Attempts that expired without a reply (each triggers a retry).
    Test-only: the fault tests check lost replies are retried. *)

type service = src:Atm.Addr.t -> bytes -> bytes
(** A server operation: request payload in, reply payload out.  Runs at
    interrupt level in the arrival upcall — it must mutate state first
    (the mutation is atomic: no yield points) and charge its own CPU
    after, so concurrent remote-memory serves cannot interleave with a
    half-applied operation. *)

val serve : Amsg.t -> id:int -> service -> unit
(** Install a service under an active-message handler id.  Duplicate
    requests (same source and request id) are answered without
    re-running the service while the id is among the source's last 16
    served. *)

val call : endpoint -> dst:Atm.Addr.t -> id:int -> bytes -> bytes
(** Issue a request and block for the reply, retransmitting every
    400 µs up to 12 times; raises [Rmem.Status.Timeout] when
    the budget is exhausted.  Must run in a simulated process. *)
