(* The single calibration table for the simulated testbed.

   Every constant is the simulated cost of one hardware or kernel action
   on a DECstation 5000/200 running the paper's modified Ultrix.  The
   defaults are chosen so that composite paths reproduce the paper's
   measurements: Table 2 (WRITE 30us, READ 45us, CAS 38us, 35.4 Mb/s
   block throughput, 260us notification) and Table 3 (name-server
   latencies).  Change them only together with the calibration tests. *)

type t = {
  (* Programmed I/O against the TCA-100 FIFOs (no DMA). *)
  io_word : Sim.Time.t;  (* one 32-bit FIFO word access *)
  io_cell_overhead : Sim.Time.t;  (* per-cell setup beyond word copies *)
  burst_cells : int;  (* cells per block-transfer burst frame *)
  (* Kernel fast paths of the emulated co-processor. *)
  trap : Sim.Time.t;  (* meta-instruction trap + return *)
  descriptor_check : Sim.Time.t;  (* rights + bounds validation *)
  rx_interrupt : Sim.Time.t;  (* interrupt entry + demux, per frame *)
  vm_deliver : Sim.Time.t;  (* translation + memory write at destination *)
  vm_read : Sim.Time.t;  (* translation + memory read at source *)
  reply_match : Sim.Time.t;  (* match a reply to its waiting request *)
  cas_execute : Sim.Time.t;  (* the atomic compare-and-swap itself *)
  (* Generic kernel costs. *)
  syscall : Sim.Time.t;
  rpc_stub : Sim.Time.t;  (* marshal/unmarshal stub overhead per message *)
  context_switch : Sim.Time.t;
  notification : Sim.Time.t;  (* fd/signal delivery to user level *)
  lrpc_half : Sim.Time.t;  (* one direction of a same-machine RPC *)
  (* Segment management. *)
  segment_export_kernel : Sim.Time.t;  (* pinning + descriptor setup *)
  segment_revoke_kernel : Sim.Time.t;  (* kernel-side invalidation *)
  page_pin : Sim.Time.t;  (* pin one virtual page *)
  kernel_table_install : Sim.Time.t;  (* install an imported descriptor *)
  (* Name-server clerk work (user level). *)
  hash_insert : Sim.Time.t;
  hash_lookup : Sim.Time.t;
  hash_miss : Sim.Time.t;  (* detecting a local cache miss *)
  hash_delete : Sim.Time.t;
  (* File-server procedure costs (measured on warm Ultrix NFS caches). *)
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

let us = Sim.Time.of_us_float

let default =
  {
    io_word = us 0.55;
    io_cell_overhead = us 2.6;
    burst_cells = 8;
    trap = us 2.5;
    descriptor_check = us 1.5;
    rx_interrupt = us 3.5;
    vm_deliver = us 3.0;
    vm_read = us 1.0;
    reply_match = us 1.0;
    cas_execute = us 2.0;
    syscall = us 25.0;
    rpc_stub = us 15.0;
    context_switch = us 100.0;
    notification = us 260.0;
    lrpc_half = us 65.0;
    segment_export_kernel = us 470.0;
    segment_revoke_kernel = us 137.0;
    page_pin = us 20.0;
    kernel_table_install = us 20.0;
    hash_insert = us 20.0;
    hash_lookup = us 20.0;
    hash_miss = us 10.0;
    hash_delete = us 15.0;
    proc_null = us 10.0;
    proc_getattr = us 70.0;
    proc_lookup = us 140.0;
    proc_readlink = us 90.0;
    proc_statfs = us 50.0;
    proc_read_base = us 100.0;
    proc_read_per_kb = us 20.0;
    proc_readdir_base = us 150.0;
    proc_readdir_per_kb = us 60.0;
    proc_write_base = us 120.0;
    proc_write_per_kb = us 25.0;
  }

(* Scale every CPU-bound constant (everything except the burst shape):
   how the table changes when the processor gets [factor]x faster. *)
let scale_cpu t factor =
  let s v = Sim.Time.scale v (1. /. factor) in
  {
    io_word = s t.io_word;
    io_cell_overhead = s t.io_cell_overhead;
    burst_cells = t.burst_cells;
    trap = s t.trap;
    descriptor_check = s t.descriptor_check;
    rx_interrupt = s t.rx_interrupt;
    vm_deliver = s t.vm_deliver;
    vm_read = s t.vm_read;
    reply_match = s t.reply_match;
    cas_execute = s t.cas_execute;
    syscall = s t.syscall;
    rpc_stub = s t.rpc_stub;
    context_switch = s t.context_switch;
    notification = s t.notification;
    lrpc_half = s t.lrpc_half;
    segment_export_kernel = s t.segment_export_kernel;
    segment_revoke_kernel = s t.segment_revoke_kernel;
    page_pin = s t.page_pin;
    kernel_table_install = s t.kernel_table_install;
    hash_insert = s t.hash_insert;
    hash_lookup = s t.hash_lookup;
    hash_miss = s t.hash_miss;
    hash_delete = s t.hash_delete;
    proc_null = s t.proc_null;
    proc_getattr = s t.proc_getattr;
    proc_lookup = s t.proc_lookup;
    proc_readlink = s t.proc_readlink;
    proc_statfs = s t.proc_statfs;
    proc_read_base = s t.proc_read_base;
    proc_read_per_kb = s t.proc_read_per_kb;
    proc_readdir_base = s t.proc_readdir_base;
    proc_readdir_per_kb = s t.proc_readdir_per_kb;
    proc_write_base = s t.proc_write_base;
    proc_write_per_kb = s t.proc_write_per_kb;
  }

(* A mid-90s projection: a 5x faster workstation.  Paired with a faster
   fabric (OC-12) it answers "does the argument survive the technology
   trend it is betting on?". *)
let next_generation = scale_cpu default 5.0

(* Derived helpers. *)

let cell_copy_cost t ~payload_bytes =
  Sim.Time.add t.io_cell_overhead
    (Sim.Time.mul t.io_word (Atm.Aal.words_of_len payload_bytes))

let frame_copy_cost t ~payload_bytes =
  (* Copying a multi-cell frame through the FIFO: per-cell setup plus the
     word copies for the whole payload. *)
  let cells = Atm.Aal.cells_of_len payload_bytes in
  Sim.Time.add
    (Sim.Time.mul t.io_cell_overhead cells)
    (Sim.Time.mul t.io_word (Atm.Aal.words_of_len payload_bytes))

(* [per_kb * bytes / 1024] rounded half away from zero, in integers: for
   a product x >= 0 that is [(x + 512) asr 10], and every product here is
   an integer well below 2^53, so this is exactly what the float form
   [Sim.Time.scale per_kb (float_of_int bytes /. 1024.)] computed. *)
let proc_cost (_ : t) ~base ~per_kb ~bytes =
  Sim.Time.add base ((Sim.Time.mul per_kb bytes + 512) asr 10)
