(** Network frames: the unit handed to and received from a NIC. *)

type t

val make : ?ctx:Obs.Ctx.t -> src:Addr.t -> dst:Addr.t -> bytes -> t
(** [ctx] is a trace context riding in a reserved header field — carried
    with the frame, excluded from {!length} (and hence wire timing). *)

val src : t -> Addr.t
val dst : t -> Addr.t
val payload : t -> bytes
val ctx : t -> Obs.Ctx.t option
val length : t -> int
(** Payload length in bytes. *)

val intact : t -> bool
(** Does the payload still match the AAL checksum computed at {!make}?
    False only for frames damaged in flight by the fault plane. *)

val corrupted : byte:int -> t -> t
(** A copy of the frame with the payload byte at [byte mod length]
    flipped and the stored checksum left stale, so the receiving NIC
    detects the damage. An empty payload damages the checksum itself. *)
