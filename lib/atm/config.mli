(** Network configuration. *)

type t = {
  bandwidth_mbps : float;  (** link rate, megabits per second *)
  propagation : Sim.Time.t;  (** per-link propagation delay *)
  switch_latency : Sim.Time.t;  (** fixed per-cell switch traversal *)
  fifo_capacity_cells : int;
      (** bounds, in cells, both a NIC's receive FIFO and a link's
          transmit queue *)
}

val default : t
(** [fore_tca100]. *)

val cell_wire_time : t -> Sim.Time.t
(** Serialization time of one 53-byte cell at the configured rate. *)

val frame_wire_time : t -> int -> Sim.Time.t
(** Serialization time of a frame of the given payload length.
    Test-only: one frame's serialization time, which runs show only summed
    into latencies. *)
