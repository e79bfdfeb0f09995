(** Shared experimental setup: a simulated cluster with the name
    service, the file server (node 0), one DFS clerk per client node,
    warmed caches, and bootstrap paths pre-exercised. *)

type t = {
  testbed : Cluster.Testbed.t;
  engine : Sim.Engine.t;
  rmems : Rmem.Remote_memory.t array;
  names : Names.Clerk.t array;
  transports : Rpckit.Transport.t array;
  tree : Workload.File_tree.t;
  store : Dfs.File_store.t;
  server : Dfs.Server.t;
  clerks : Dfs.Clerk.t array;  (** index c = clerk on node c+1 *)
  prng : Sim.Prng.t;
  bench_file : int;
  bench_dir : int;
  bench_link : int;
}

val create :
  ?clients:int ->
  ?seed:int ->
  ?costs:Cluster.Costs.t ->
  ?net_config:Atm.Config.t ->
  unit ->
  t
(** Build the tree (about 6.3 MB of 8 KB blocks), warm every server
    cache area from it and run the bootstrap round trips. Each byte is
    copied once on the way: a file's pattern straight into its blocks,
    a block straight from the store into its cache slot, and an
    attribute, name entry or listing through one scratch buffer the
    server keeps. With the defaults, one call allocates about 2.82M
    words (22.5 MB, held by the "fixture create allocation budget" test)
    and takes about 12 ms of host time on a 2-vCPU VM; the warm phase
    costs no sim time, and the sim clock ends at 204.499 ms. *)

val server_cpu : t -> Cluster.Cpu.t
val clerk : t -> int -> Dfs.Clerk.t

val run : t -> (unit -> 'a) -> 'a
(** Run a body as a simulation process to quiescence. *)

val now : t -> Sim.Time.t

val time : t -> (unit -> 'a) -> 'a * float
(** Result and elapsed simulated microseconds. *)

val reset_accounting : t -> unit
(** Zero every node's CPU accounts (between measurement phases). *)

val recache_bench : t -> unit
(** Restore the benchmark objects' server cache slots (the paper's
    100%-hit regime) — run before each figure measurement, since write
    pushes and collisions degrade the direct-mapped slots. *)

val figure_ops : t -> (string * Dfs.Nfs_ops.op) list
(** The twelve operations of Figures 2 and 3, in the paper's order. *)

val on_write_served : Rmem.Remote_memory.t -> (int -> unit) -> unit -> unit
(** [on_write_served rmem f] subscribes [f] to [rmem]'s node: it is
    called with [count] at the instant each inbound WRITE (or burst
    extent) has deposited its [count] bytes, before any notification
    cost; the calibration experiments time one-way delivery with it.
    The result detaches it. *)
