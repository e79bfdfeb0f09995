(** Network frames: the unit handed to and received from a NIC. *)

type t

val make : ?ctx:Obs.Ctx.t -> src:Addr.t -> dst:Addr.t -> bytes -> t
(** [ctx] is a trace context riding in a reserved header field — carried
    with the frame, excluded from {!length} (and hence wire timing).
    The frame is never recycled. *)

val src : t -> Addr.t
val dst : t -> Addr.t
val payload : t -> bytes
val ctx : t -> Obs.Ctx.t option
val length : t -> int
(** Payload length in bytes. *)

val stamp : t -> src:Addr.t -> dst:Addr.t -> Obs.Ctx.t option -> unit
(** Address a frame for transmission and compute its AAL checksum over
    the payload as it now stands. *)

(** {1 Recycled frames}

    A pool hands out frames, record and payload together, and takes
    them back once their receiver is done with them. One pool serves a
    whole network: the node that builds a frame and the node that
    releases it are different. *)

type pool

val pool : unit -> pool

val take : pool -> int -> t
(** A frame whose payload is exactly [len] bytes, a recycled one when
    the pool holds one. The payload's contents are unspecified: the
    caller overwrites all of it before {!stamp}. *)

val release : t -> unit
(** Give a pooled frame back to its pool, for a later {!take} to
    overwrite. Only once nothing will read the frame again. No effect
    on a frame that is not pooled, pinned or already released. *)

val pin : t -> unit
(** Never recycle this frame: something other than its one receiver may
    still hold it (an interposer that duplicates, delays or inspects
    it). No effect on a frame that is not pooled. *)

(** {1 Rings} *)

type ring
(** A FIFO of frames that grows as needed. *)

val ring : unit -> ring
(** An empty ring. *)

val ring_push : ring -> t -> unit
(** Append a frame. *)

val ring_pop : ring -> t
(** Remove and return the oldest frame; the ring no longer holds it.
    Raises [Invalid_argument] on an empty ring. *)

val ring_length : ring -> int
(** Frames in the ring. *)

val outstanding : pool -> int
(** Frames taken and neither released nor pinned. A frame dropped on
    the way (no route, a full queue, a bad checksum, a crashed
    receiver) is left to the garbage collector and stays counted.
    Test-only: a frame leak, which no run's output shows. *)

val created : pool -> int
(** Frames the pool has allocated: the most it ever retains.
    Test-only: frame reuse, which no run's output shows. *)

val intact : t -> bool
(** Does the payload still match the AAL checksum computed when the
    frame was formatted? False only for frames damaged in flight by the
    fault plane, or for a recycled frame overwritten before delivery. *)

val corrupted : byte:int -> t -> t
(** An unpooled copy of the frame with the payload byte at
    [byte mod length] flipped and the stored checksum left stale, so the
    receiving NIC detects the damage. An empty payload damages the
    checksum itself. *)
