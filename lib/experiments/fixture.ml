(* Shared experimental setup: a simulated cluster with the name service,
   the file server (node 0) and one DFS clerk per client node, caches
   warmed and bootstrap paths exercised so measurements see steady
   state. *)

type t = {
  testbed : Cluster.Testbed.t;
  engine : Sim.Engine.t;
  rmems : Rmem.Remote_memory.t array;
  names : Names.Clerk.t array;
  transports : Rpckit.Transport.t array;
  tree : Workload.File_tree.t;
  store : Dfs.File_store.t;
  server : Dfs.Server.t;
  clerks : Dfs.Clerk.t array; (* index c -> clerk on node c+1 *)
  prng : Sim.Prng.t;
  (* Dedicated benchmark objects. *)
  bench_file : int;
  bench_dir : int;
  bench_link : int;
}

let server_node t = Cluster.Testbed.node t.testbed 0
let server_cpu t = Cluster.Node.cpu (server_node t)
let clerk t c = t.clerks.(c)
let run t body = Cluster.Testbed.run t.testbed body
let now t = Sim.Engine.now t.engine

let time t body =
  let t0 = now t in
  let result = body () in
  (result, Sim.Time.to_us (Sim.Time.diff (now t) t0))

(* Populate the benchmark objects: an 8 KB file, a directory whose
   packed listing exceeds 4 KB, and a symlink. *)
let add_bench_objects store =
  let root = Dfs.File_store.root store in
  let dir = Dfs.File_store.mkdir store ~dir:root ~name:"bench" () in
  let file = Dfs.File_store.create_file store ~dir ~name:"big.dat" () in
  Dfs.File_store.write store file ~off:0 (Workload.File_tree.pattern 0 16384);
  let wide = Dfs.File_store.mkdir store ~dir ~name:"wide" () in
  for i = 0 to 299 do
    ignore
      (Dfs.File_store.create_file store ~dir:wide
         ~name:(Printf.sprintf "entry%04d" i) ()
        : int)
  done;
  let link =
    Dfs.File_store.symlink store ~dir ~name:"link" ~target:"/exports/big.dat"
  in
  (file, wide, link)

let create ?(clients = 1) ?(seed = 7) ?costs ?net_config () =
  let nodes = clients + 1 in
  let testbed =
    Cluster.Testbed.create ?costs ?config:net_config ~nodes ~seed ()
  in
  let engine = Cluster.Testbed.engine testbed in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let transports =
    Array.init nodes (fun i ->
        Rpckit.Transport.attach (Cluster.Testbed.node testbed i))
  in
  let prng = Sim.Prng.create (seed * 1_000_003) in
  let tree = Workload.File_tree.build prng in
  let store = Workload.File_tree.store tree in
  let bench_file, bench_dir, bench_link = add_bench_objects store in
  let fixture = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let names =
        Array.init nodes (fun i -> Names.Clerk.create rmems.(i))
      in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let server =
        Dfs.Server.create ~rmem:rmems.(0) ~clerk:names.(0) ~store ()
      in
      Dfs.Server.warm_all_caches server;
      Dfs.Rpc_service.start transports.(0) ~store ();
      let clerks =
        Array.init clients (fun c ->
            Dfs.Clerk.create
              ~rpc:transports.(c + 1)
              ~names:names.(c + 1)
              ~server:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
              ())
      in
      Dfs.Server.cache_attr server bench_file;
      Dfs.Server.cache_file_block server bench_file ~block:0;
      Dfs.Server.cache_file_block server bench_file ~block:1;
      Dfs.Server.cache_name server ~dir:bench_dir ~name:"entry0001";
      Dfs.Server.cache_dir server bench_dir;
      Dfs.Server.cache_link server bench_link;
      (* Warm the bootstrap paths so measurements see steady state: one
         Hybrid-1 round trip (imports the reply descriptor on the
         server) and one RPC round trip per clerk. *)
      Array.iter
        (fun clerk ->
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
          ignore (Dfs.Clerk.remote_fetch clerk Dfs.Nfs_ops.Null);
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Rpc_baseline;
          ignore (Dfs.Clerk.remote_fetch clerk Dfs.Nfs_ops.Null);
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx)
        clerks;
      fixture :=
        Some
          {
            testbed;
            engine;
            rmems;
            names;
            transports;
            tree;
            store;
            server;
            clerks;
            prng;
            bench_file;
            bench_dir;
            bench_link;
          });
  match !fixture with Some f -> f | None -> assert false

(* Restore the benchmark objects' server cache slots to the paper's
   100%-hit regime. Direct-mapped caches lose them to collisions during
   the warm walk, and small write pushes shrink the cached block, so
   every figure run re-warms before measuring. *)
let recache_bench t =
  Dfs.Server.cache_attr t.server t.bench_file;
  Dfs.Server.cache_file_block t.server t.bench_file ~block:0;
  Dfs.Server.cache_file_block t.server t.bench_file ~block:1;
  Dfs.Server.cache_name t.server ~dir:t.bench_dir ~name:"entry0001";
  Dfs.Server.cache_dir t.server t.bench_dir;
  Dfs.Server.cache_link t.server t.bench_link

(* Reset CPU accounting everywhere (between measurement phases). *)
let reset_accounting t =
  Array.iter
    (fun node -> Cluster.Cpu.reset_accounting (Cluster.Node.cpu node))
    (Array.of_list (Cluster.Testbed.nodes t.testbed))

(* The twelve operations of Figures 2 and 3, in the paper's order. *)
let figure_ops t =
  [
    ("GetAttribute", Dfs.Nfs_ops.Get_attr { fh = t.bench_file });
    ( "LookupName",
      Dfs.Nfs_ops.Lookup { dir = t.bench_dir; name = "entry0001" } );
    ("ReadLink", Dfs.Nfs_ops.Read_link { fh = t.bench_link });
    ("Readfile(8K)", Dfs.Nfs_ops.Read { fh = t.bench_file; off = 0; count = 8192 });
    ("Readfile(4K)", Dfs.Nfs_ops.Read { fh = t.bench_file; off = 0; count = 4096 });
    ("Readfile(1K)", Dfs.Nfs_ops.Read { fh = t.bench_file; off = 0; count = 1024 });
    ( "ReadDirectory(4K)",
      Dfs.Nfs_ops.Read_dir { fh = t.bench_dir; count = 4096 } );
    ( "ReadDirectory(1K)",
      Dfs.Nfs_ops.Read_dir { fh = t.bench_dir; count = 1024 } );
    ( "ReadDirectory(512)",
      Dfs.Nfs_ops.Read_dir { fh = t.bench_dir; count = 512 } );
    ( "WriteFile(8K)",
      Dfs.Nfs_ops.Write { fh = t.bench_file; off = 0; data = Bytes.make 8192 'w' } );
    ( "WriteFile(4K)",
      Dfs.Nfs_ops.Write { fh = t.bench_file; off = 0; data = Bytes.make 4096 'w' } );
    ( "WriteFile(1K)",
      Dfs.Nfs_ops.Write { fh = t.bench_file; off = 0; data = Bytes.make 1024 'w' } );
  ]

let on_write_served rmem f =
  let node = Rmem.Remote_memory.node rmem in
  let subscriber = function
    | Rmem.Remote_memory.Served { op = Rmem.Rights.Write_op; count; _ } ->
        f count
    | _ -> ()
  in
  Cluster.Node.subscribe node subscriber;
  fun () -> Cluster.Node.unsubscribe node subscriber
