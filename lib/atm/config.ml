(* Network configuration.

   Defaults model the paper's testbed: FORE TCA-100 interfaces on a
   140 Mb/s ATM fabric, hosts connected back-to-back (switchless). *)

type t = {
  bandwidth_mbps : float;  (* link rate in megabits per second *)
  propagation : Sim.Time.t;  (* per-link propagation delay *)
  switch_latency : Sim.Time.t;  (* fixed per-cell switch traversal *)
  fifo_capacity_cells : int;
      (* NIC receive-FIFO depth, and a link's transmit-queue bound *)
}

let fore_tca100 =
  {
    bandwidth_mbps = 140.0;
    propagation = Sim.Time.ns 500;
    switch_latency = Sim.Time.us 2;
    fifo_capacity_cells = 2048;
  }

let default = fore_tca100

(* [Sim.Time.of_us_float (bits /. t.bandwidth_mbps)] written out: the
   float stays in this function instead of crossing into [Sim.Time]
   boxed, so pricing a frame allocates nothing. *)
let cell_wire_time t =
  let bits = float_of_int (Aal.cell_wire_bytes * 8) in
  int_of_float (Float.round (bits /. t.bandwidth_mbps *. 1_000.))

let frame_wire_time t len =
  Sim.Time.mul (cell_wire_time t) (Aal.cells_of_len len)
