(** Well-known constants that let the name service bootstrap itself.

    Every clerk is the first exporter on its node and always exports the
    same three segments in the same order, so their ids {e and}
    generation numbers are cluster-wide constants — this is what
    "certain well-known segment names have been reserved on each
    machine" amounts to. *)

val registry_segment_id : int
val request_segment_id : int
val scratch_segment_id : int

val registry_generation : Rmem.Generation.t
val request_generation : Rmem.Generation.t
val scratch_generation : Rmem.Generation.t

val default_slots : int
(** Registry slots per clerk. *)

val max_nodes : int
(** Bound on cluster size implied by the request table layout. *)

val request_slot_bytes : int
(** [reply offset 4][name 32][pad 12]; the 40 bytes written ride in a
    single ATM cell. *)

val scratch_slots : int

val scratch_slot_bytes : int
(** An {!Rmem.Hybrid} reply slot: [flag 4][len 4][record 64]. *)

(** Clerk address-space layout. *)

val registry_base : int
val request_base : int
val scratch_base : int
val probe_buffer_base : int
val probe_buffer_bytes : int
