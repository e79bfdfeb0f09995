(** Request/response RPC over active messages.

    The RPC-structured data structures transfer control with every
    operation: the client sends a request frame whose handler runs the
    operation on the home node's CPU and sends the reply back.  This
    module supplies the request-id plumbing both sides share: per-call
    ids, timeout-driven retransmission on the client, and a per-source
    duplicate cache on the server making retried calls at-most-once.

    Allocation: an attempt allocates only its park: its send's trap is
    charged at event level meanwhile. Frames come from the network's
    pool ({!Amsg.frame}), an attempt's record (reply buffer, wait,
    holds, timer thunk) from a per-endpoint free stack; the
    request is copied into each attempt's frame, the reply into the
    caller's buffer. Ids are ints; each source's reply cache is a fixed
    16-slot ring of preallocated buffers. *)

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

type reply = { buf : bytes; mutable len : int }
(** A reply: its ring slot's 64-byte buffer and the length written. *)

type service = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> reply:reply -> Sim.Time.t
(** A server operation: the request is [len] bytes of the arriving
    frame from [pos] (never kept). It mutates its state, writes its
    reply into [reply] (bytes and length), and returns its CPU span
    ([Sim.Time.zero]: none). It runs as an {!Amsg} handler, at interrupt
    level: to completion, with no yield point. The span is charged once
    it returns, and the reply is sent after that, so an operation is
    whole before any charge and remote-memory serves cannot interleave
    with a half-applied one. *)

val serve : Amsg.t -> id:int -> service -> unit
(** Install a service under an active-message handler id.  Duplicate
    requests (same source and request id) are answered by resending
    the reply their slot holds, without re-running the service or
    charging its span, while the id is among the source's last 16
    served. A reply length outside 0–64 raises [Invalid_argument] in
    the upcall. *)

val call : endpoint -> dst:Atm.Addr.t -> id:int -> bytes -> reply:bytes -> int
(** Send the request and block for the reply, retransmitting every
    400 µs up to 12 times; copy the reply into [reply] and return its
    length. Each attempt parks the caller once, from its send's trap to
    the reply (one during the trap resumes it at the trap's end) or the
    timer. Raises [Invalid_argument] if the reply is longer than
    [reply], and [Rmem.Status.Timeout] when the budget is exhausted.
    Must run in a simulated process. *)
