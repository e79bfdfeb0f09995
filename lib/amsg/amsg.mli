(** Active Messages [von Eicken et al. 1992] — §6's second related-work
    comparator: every message carries a handler id that the receiver
    runs on arrival (at interrupt level in the paper; here in the
    node's receive-dispatcher process, see {!register}). No scheduling,
    no blocked server threads, but computation runs on the destination
    CPU for every message, which is precisely what the remote-memory
    model avoids.

    Allocation: none per message on the host. A frame comes from the
    node NIC's pool, the sender writes the 8-byte header into it, the
    receiver hands the handler its arguments as a range of it, and the
    receiving dispatcher gives it back once the handler returns. {!send}
    copies its arguments once; a caller that fills the frame itself
    through {!frame} and {!send_frame} copies nothing. *)

type t

type handler = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> unit
(** The arguments are the [len] bytes of the frame from [pos]. The frame
    goes back to the pool when the upcall returns: read it during the
    upcall, never write or keep it. *)

val attach : Cluster.Node.t -> t
(** Claim the active-message frame tag on a node. A frame shorter than
    its header, or than the argument length it declares, raises
    [Atm.Codec.Truncated] at the receiver. *)

val register : t -> id:int -> handler -> unit
(** Install a handler (ids 0–255). The handler runs on arrival in the
    node's receive-dispatcher process, not at interrupt level as the
    paper's do: {!attach} claims a process-level tag
    ({!Cluster.Node.set_handler}), so a handler may block on the CPU,
    and the node takes its next frame only when the handler returns. It
    should be short and charge its own computation. *)

val header_bytes : int
(** Where the arguments start in a frame (8). *)

val frame : t -> len:int -> Atm.Frame.t
(** A pooled frame with room for [len] argument bytes from
    {!header_bytes} of its payload, which the caller writes; the header
    is written by {!send_frame}. Its contents are unspecified until
    then. Raises [Invalid_argument] for [len] outside 0–64 KB. *)

val send_frame : t -> dst:Atm.Addr.t -> handler:int -> Atm.Frame.t -> unit
(** Fire-and-forget a frame from {!frame}: write its header, pay the
    send-side trap and FIFO copy, then hand it to the network, which
    owns it from then on: the sender neither changes nor sends it again
    (a retransmission takes a new frame). Raises [Invalid_argument] for
    a handler id outside 0–255. *)

val send : t -> dst:Atm.Addr.t -> handler:int -> bytes -> unit
(** {!send_frame} of a pooled frame holding a copy of the arguments. *)

(** {1 Statistics} *)

val sent : t -> int

val handler_cpu : t -> Sim.Time.t
(** Receiver CPU consumed inside handler upcalls. *)

val node : t -> Cluster.Node.t
