(** The single calibration table for the simulated testbed.

    Every field is the simulated cost of one hardware or kernel action on
    the paper's DECstation 5000/200 + modified-Ultrix testbed. The
    {!default} values make composite paths reproduce the paper's Table 2
    and Table 3 measurements; the calibration tests in [test/] pin them. *)

type t = {
  io_word : Sim.Time.t;  (** one 32-bit programmed-I/O FIFO word access *)
  io_cell_overhead : Sim.Time.t;  (** per-cell setup beyond word copies *)
  burst_cells : int;  (** cells per block-transfer burst frame *)
  trap : Sim.Time.t;  (** meta-instruction trap + return *)
  descriptor_check : Sim.Time.t;  (** rights + bounds validation *)
  rx_interrupt : Sim.Time.t;  (** interrupt entry + demux, per frame *)
  vm_deliver : Sim.Time.t;  (** translation + memory write at destination *)
  vm_read : Sim.Time.t;  (** translation + memory read at source *)
  reply_match : Sim.Time.t;  (** match a reply to its waiting request *)
  cas_execute : Sim.Time.t;  (** the atomic compare-and-swap itself *)
  syscall : Sim.Time.t;
  rpc_stub : Sim.Time.t;  (** marshal/unmarshal stub overhead per message *)
  context_switch : Sim.Time.t;
  notification : Sim.Time.t;  (** fd/signal delivery to user level *)
  lrpc_half : Sim.Time.t;  (** one direction of a same-machine RPC *)
  segment_export_kernel : Sim.Time.t;  (** pinning + descriptor setup *)
  segment_revoke_kernel : Sim.Time.t;  (** kernel-side invalidation *)
  page_pin : Sim.Time.t;  (** pin one virtual page *)
  kernel_table_install : Sim.Time.t;  (** install an imported descriptor *)
  hash_insert : Sim.Time.t;
  hash_lookup : Sim.Time.t;
  hash_miss : Sim.Time.t;  (** detecting a local cache miss *)
  hash_delete : Sim.Time.t;
  proc_null : Sim.Time.t;
  proc_getattr : Sim.Time.t;
  proc_lookup : Sim.Time.t;
  proc_readlink : Sim.Time.t;
  proc_statfs : Sim.Time.t;
  proc_read_base : Sim.Time.t;
  proc_read_per_kb : Sim.Time.t;
  proc_readdir_base : Sim.Time.t;
  proc_readdir_per_kb : Sim.Time.t;
  proc_write_base : Sim.Time.t;
  proc_write_per_kb : Sim.Time.t;
}

val default : t

val next_generation : t
(** A mid-90s projection: the default testbed with a 5x faster CPU. *)

val cell_copy_cost : t -> payload_bytes:int -> Sim.Time.t
(** CPU time to move one cell of the given payload through a FIFO. *)

val frame_copy_cost : t -> payload_bytes:int -> Sim.Time.t
(** CPU time to move a whole (possibly multi-cell) frame through a FIFO. *)

val proc_cost :
  t -> base:Sim.Time.t -> per_kb:Sim.Time.t -> bytes:int -> Sim.Time.t
(** Size-dependent server procedure cost: [base + per_kb * bytes/1024],
    rounded to the nearest ns with halves rounded up. *)
