(** Active Messages [von Eicken et al. 1992] — §6's second related-work
    comparator: every message carries a handler id that the receiver
    runs on arrival, at interrupt level as in the paper (see
    {!register}). No scheduling, no blocked server threads, but
    computation runs on the destination CPU for every message, which is
    precisely what the remote-memory model avoids.

    Allocation: none per message on the host. A frame comes from the
    node NIC's pool, the sender writes the 8-byte header into it, the
    receiver hands the handler its arguments as a range of it, and the
    receiving node gives it back once the message is served. {!send}
    copies its arguments once; a caller that fills the frame itself
    through {!frame}, {!prepare} and {!send_frame} copies nothing. *)

type t

type handler = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> Sim.Time.t
(** The arguments are the [len] bytes of the frame from [pos]. The frame
    goes back to the pool once the message is served: read it during the
    upcall, never write or keep it. The handler returns the CPU span its
    computation takes, charged as procedure invocation once it returns
    ([Sim.Time.zero]: none). *)

val attach : Cluster.Node.t -> t
(** Claim the active-message frame tag on a node. A frame shorter than
    its header, or than the argument length it declares, raises
    [Atm.Codec.Truncated] at the receiver. *)

val register : t -> id:int -> handler -> unit
(** Install a handler (ids 0–255). The handler runs at interrupt level,
    in no process: {!attach} claims an interrupt-level tag
    ({!Cluster.Node.set_interrupt_handler}). A message's reception is
    charged first; then the handler runs to completion and cannot
    block; then the span it returns is charged, then the reply it asked
    for ({!reply}) is charged and sent, and only then does the node take
    its next frame. So the handler's effects precede its charges. *)

val reply : t -> handler:int -> Atm.Frame.t -> unit
(** From within a handler, answer its message's source with a frame
    from {!frame}: the header is written now, and the frame is sent,
    after the send-side trap and FIFO copy ({!prepare}), once the
    handler's span is charged. At most one per message. Raises
    [Invalid_argument] for a second reply or a handler id outside
    0–255. *)

val header_bytes : int
(** Where the arguments start in a frame (8). *)

val frame : t -> len:int -> Atm.Frame.t
(** A pooled frame with room for [len] argument bytes from
    {!header_bytes} of its payload, which the caller writes; the header
    is written by {!prepare} or {!reply}. Its contents are
    unspecified until then. Raises [Invalid_argument] for [len] outside
    0–64 KB. *)

val prepare : t -> handler:int -> Atm.Frame.t -> Sim.Time.t
(** Write the header of a frame from {!frame} and return the send-side
    trap and FIFO copy its sender's CPU pays before {!send_frame}.
    Raises [Invalid_argument] for a handler id outside 0–255. *)

val send_frame : t -> dst:Atm.Addr.t -> Atm.Frame.t -> unit
(** Fire-and-forget a {!prepare}d frame once its span is charged; a
    retransmission takes a new frame. It suspends nothing: Dds.Call
    charges the span at event level and sends at the charge's end. *)

val send : t -> dst:Atm.Addr.t -> handler:int -> bytes -> unit
(** {!send_frame} of a pooled frame holding a copy of the arguments,
    its span charged by the sending process. *)

(** {1 Statistics} *)

val sent : t -> int
(** Messages sent, replies included. *)

val handler_cpu : t -> Sim.Time.t
(** Receiver CPU busy time from each handler's start to its message's
    end: the handler's span and its reply's send, and any other charge
    that ends in between. *)

val node : t -> Cluster.Node.t
