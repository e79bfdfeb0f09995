(** Host-network interfaces, modeled after the FORE TCA-100
    (word-at-a-time FIFOs, no DMA).

    The CPU cost of programmed-I/O word copies is charged by the kernel
    emulation layer; the NIC models the wire side and the bounded receive
    FIFO. *)

exception Rx_overflow of Addr.t
(** The receive FIFO bound was exceeded — catastrophic under the paper's
    in-cluster reliability assumption. *)

type t

val create : Config.t -> pool:Frame.pool -> Addr.t -> t
(** [pool] is the network's frame pool, shared by every NIC on it. *)

val addr : t -> Addr.t

val pool : t -> Frame.pool
(** The pool the remote-memory frame builders take their frames from. *)

val set_route : t -> (Addr.t -> Link.t option) -> unit
(** Install the outbound routing function (done by {!Network}). [None]
    means the destination is unreachable (crashed or partitioned peer):
    the frame is counted in {!route_drops} and discarded rather than
    aborting the simulation. *)

val transmit : ?ctx:Obs.Ctx.t -> t -> dst:Addr.t -> bytes -> unit
(** Route a payload onto the appropriate link. Does not block; wire-rate
    serialization happens inside the link. [ctx] rides the frame header
    for tracing and opens the frame's wire span. *)

val send : ?ctx:Obs.Ctx.t -> t -> dst:Addr.t -> Frame.t -> unit
(** {!transmit} a frame already built, a pooled one taken from {!pool}:
    it is addressed and checksummed here. *)

val deliver : t -> Frame.t -> unit
(** Called by links at frame arrival; queues into the receive FIFO, or
    hands the frame straight to a listening reader, scheduling its
    callback now. A frame whose AAL checksum no longer matches its
    payload is discarded as a receive error ({!crc_errors}) —
    corruption surfaces as loss. *)

val none : Frame.t
(** What {!read} returns when it has no frame: no received frame is it. *)

val read : t -> Sim.Proc.t -> Frame.t
(** [read t reader] drains the next received frame: the one handed to
    [reader], else the oldest queued. With none, it returns {!none} and
    [reader], a {!Sim.Proc.callback} waiter, listens (recorded as a
    daemon wait): the next frame to arrive is handed to it and its
    callback scheduled at the arrival instant, which reads that frame
    with [read]. The FIFO has one reader at a time: reading while a
    reader listens raises [Invalid_argument]. *)

val pending_frames : t -> int
(** Frames queued in the receive FIFO. A frame handed straight to a
    listening reader is not pending. *)

(** {1 Statistics} *)

val bytes_tx : t -> int

val crc_errors : t -> int
(** Arriving frames discarded for a checksum mismatch. *)

val route_drops : t -> int
(** Outbound frames discarded for lack of a route. *)
