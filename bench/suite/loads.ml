(* The four workloads of the system benchmark.

   Each one builds its testbed through the layers' public constructors
   (that is the set-up phase) and returns a rig: closed-loop clients
   holding op streams generated from the seed before the run, the nodes
   whose CPUs count as serving, and the workload's own layer counters.
   The ops only replay the generated inputs and check what comes back;
   an op that raises counts as failed.  The testbeds themselves are
   fixed, so runs with different seeds differ only in their inputs. *)

exception Wrong of string

type client = {
  node : int;  (** testbed node the client runs on *)
  group : int;  (** index into [rig.groups]; 0 when there is one group *)
  think_ns : int array;
      (** pause before each op; the first one also staggers the start *)
  ops : (unit -> int) array;  (** each returns the op's payload bytes *)
}

type rig = {
  testbed : Cluster.Testbed.t;
  rmems : Rmem.Remote_memory.t list;
  servers : int list;
  clients : client array;
  groups : string list;
      (** metric prefix of each client group, for per-group percentiles;
          empty when the clients form one group *)
  at_half : (unit -> unit) option;
      (** control-plane action run once every client is halfway *)
  layer : unit -> ops:int -> (string * float) list;
      (** called at the start of the measured phase; the returned
          function reports the workload's layer metrics at its end *)
  post : unit -> int * (string * float) list;
      (** probes after the measured phase: (failures, metrics) *)
}

let node rig i = Cluster.Testbed.node rig.testbed i

(* The links leaving a host: every frame crosses exactly one of them. *)
let host_links rig =
  List.filter_map
    (function Some _, _, l -> Some l | None, _, _ -> None)
    (Atm.Network.links (Cluster.Testbed.network rig.testbed))

(* Closed-loop pauses of 1-10 us between a client's ops, to the
   nanosecond, so clients sharing a resource drift against each other
   instead of falling into a few fixed interleavings; the first pause
   staggers client starts so they do not open in lockstep. *)
let think prng ~k n =
  Array.init n (fun i ->
      if i = 0 then 1000 * (1 + (2 * k) + Sim.Prng.int prng 50)
      else 1000 + Sim.Prng.int prng 9001)

let account_total accounts category =
  List.fold_left
    (fun acc a -> acc +. Metrics.Account.total_of a category)
    0. accounts

(* A layer reporter from cumulative counters: snapshot at the start,
   hand the deltas to [derive] at the end. *)
let deltas read derive () =
  let before = read () in
  fun ~ops ->
    let after = read () in
    let d name = List.assoc name after -. List.assoc name before in
    derive d ~ops:(float_of_int ops)

let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* nfs_mix: the Table 1a NFS mix through DX clerks (Study 2).

   Table 1a counts the calls that reached the file server, so each op
   is what the paper's headline replays: a local RPC into the node's
   clerk and the clerk's remote path (DX, falling back to control
   transfer on a server-cache miss).  Going through the clerk's local
   caches as well would filter the mix twice, and would put the median
   op on the constant local-hit cost for every seed. *)

let nfs_result_ok (op : Dfs.Nfs_ops.op) (r : Dfs.Nfs_ops.result) =
  match (op, r) with
  | Null, R_null
  | Get_attr _, R_attr _
  | Lookup _, R_lookup _
  | Read_link _, R_link _
  | Read_dir _, R_entries _
  | Statfs, R_statfs _
  | Write _, R_write _
  | Set_attr _, R_attr _ ->
      true
  | Read { count; _ }, R_data d -> Bytes.length d > 0 && Bytes.length d <= count
  | _ -> false

let nfs_mix ~seed ~per_client =
  let clients = 4 in
  let fx = Experiments.Fixture.create ~clients () in
  let prng = Sim.Prng.create ((seed * 7919) + 1) in
  let sample = Workload.Mix.sampler () in
  let client k =
    let clerk = Experiments.Fixture.clerk fx k in
    let events =
      Array.init per_client (fun _ ->
          Workload.Trace.event_for fx.tree prng (sample prng))
    in
    {
      node = k + 1;
      group = 0;
      think_ns = think prng ~k per_client;
      ops =
        Array.map
          (fun (e : Workload.Trace.event) () ->
            let r =
              Cluster.Lrpc.call (Dfs.Clerk.node clerk) (Dfs.Clerk.remote_fetch clerk) e.op
            in
            if not (nfs_result_ok e.op r) then
              raise (Wrong ("unexpected result for " ^ e.label));
            (Dfs.Nfs_ops.request_traffic e.op).data
            + (Dfs.Nfs_ops.reply_traffic r).data)
          events;
    }
  in
  let stats () = Array.to_list (Array.map Dfs.Clerk.stats fx.clerks) in
  let read () =
    List.map
      (fun c -> (c, account_total (stats ()) c))
      [ "dx reads"; "dx ops"; "dx misses -> control"; "hybrid requests" ]
  in
  {
    testbed = fx.testbed;
    rmems = Array.to_list fx.rmems;
    servers = [ 0 ];
    clients = Array.init clients client;
    groups = [];
    at_half = None;
    layer =
      deltas read (fun d ~ops ->
          [
            ("dfs.dx_reads_per_op", d "dx reads" /. ops);
            ("dfs.miss_to_control_frac", ratio (d "dx misses -> control") (d "dx ops"));
            ("dfs.hybrid_requests_per_op", d "hybrid requests" /. ops);
          ]);
    post = (fun () -> (0, []));
  }

(* ------------------------------------------------------------------ *)
(* name_lookup: the sharded name service on a 128-host Clos (Study 1). *)

let svc_name i = Printf.sprintf "svc.%04d" i

let name_lookup ~seed ~per_client =
  let shard_hosts = 8 and clients = 48 and names = 256 in
  let first_client = 2 + shard_hosts in
  let topology = Atm.Network.Clos { spines = 4; leaves = 8; hosts_per_leaf = 16 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:128 () in
  let engine = Cluster.Testbed.engine testbed in
  let rmems = ref [] in
  let clerk i =
    let rm = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i) in
    rmems := rm :: !rmems;
    Names.Clerk.create rm
  in
  let record i =
    Names.Record.make ~name:(svc_name i)
      ~node:(2 + (i mod shard_hosts))
      ~segment_id:(1000 + i)
      ~generation:(Rmem.Generation.of_int 1)
      ~size:4096 ~rights:Rmem.Rights.read_only
  in
  let reconciler, scs =
    Cluster.Testbed.run testbed (fun () ->
        let map_clerk = clerk 0 in
        let recon_clerk = clerk 1 in
        let hosts = Array.init shard_hosts (fun k -> clerk (2 + k)) in
        let reconciler =
          Names.Reconciler.create ~slots:1024 ~max_clients:128
            ~pace:(Sim.Time.us 150) ~map_clerk ~hosts recon_clerk
        in
        Names.Reconciler.serve_registrations reconciler;
        (* One shard per host before the campaign opens. *)
        while Names.Reconciler.shard_count reconciler < shard_hosts do
          for id = 0 to Names.Reconciler.shard_count reconciler - 1 do
            if Names.Reconciler.shard_count reconciler < shard_hosts then
              ignore (Names.Reconciler.split reconciler id : int option)
          done
        done;
        let scs =
          Array.init clients (fun k ->
              Names.Shard_clerk.create ~map_hint:(Atm.Addr.of_int 0)
                ~reconciler_hint:(Atm.Addr.of_int 1)
                (clerk (first_client + k)))
        in
        for i = 0 to names - 1 do
          Names.Shard_clerk.register scs.(i mod clients) (record i)
        done;
        (* Warm every client's map cache: the measured lookups are steady
           state, not first-touch imports. *)
        Array.iter (fun sc -> ignore (Names.Shard_clerk.lookup sc (svc_name 0))) scs;
        (reconciler, scs))
  in
  let lost = ref 0 and stale = ref 0 in
  let verify sc idx =
    match Names.Shard_clerk.lookup sc (svc_name idx) with
    | exception Names.Clerk.Name_not_found _ ->
        incr lost;
        raise (Wrong "lost name")
    | r ->
        if
          r.segment_id <> 1000 + idx
          || not (Rmem.Generation.equal r.generation (Rmem.Generation.of_int 1))
        then begin
          incr stale;
          raise (Wrong "stale record")
        end;
        Names.Record.slot_bytes
  in
  let prng = Sim.Prng.create ((seed * 7919) + 2) in
  let pick = Workload.Zipf.(sample (create ~exponent:1.5 names)) in
  let report_every = max 2 (per_client / 4) in
  let client k =
    let sc = scs.(k) in
    let idx = Array.init per_client (fun _ -> pick prng) in
    {
      node = first_client + k;
      group = 0;
      think_ns = think prng ~k per_client;
      ops =
        Array.mapi
          (fun i name () ->
            let bytes = verify sc name in
            if (i + 1) mod report_every = 0 then Names.Shard_clerk.report_load sc;
            bytes)
          idx;
    }
  in
  (* The mid-campaign rebalance splits the hottest shard while lookups
     keep flowing; when the load rows show no skew this draw, the hot
     key's shard is split anyway, so every run crosses one split. *)
  let map_before = ref None and split_at = ref None in
  let rebalance () =
    map_before := Some (Names.Reconciler.map reconciler);
    split_at := Some (Sim.Engine.now engine);
    match Names.Reconciler.rebalance_once reconciler with
    | Names.Reconciler.Split _ -> ()
    | Names.Reconciler.Balanced ->
        Option.iter
          (fun id -> ignore (Names.Reconciler.split reconciler id : int option))
          (Names.Reconciler.shard_id_of_bucket reconciler
             (Names.Shardmap.bucket_of_name (svc_name 0)))
  in
  (* Convergence probe: every client must find a record the split
     migrated, healing onto the final epoch as it does. *)
  let post () =
    let failures = ref 0 in
    let after = Names.Reconciler.map reconciler in
    let moved i =
      match !map_before with
      | None -> false
      | Some before -> (
          let b = Names.Shardmap.bucket_of_name (svc_name i) in
          match (Names.Shardmap.owner before b, Names.Shardmap.owner after b) with
          | Some x, Some y -> x.node <> y.node || x.segment_id <> y.segment_id
          | _ -> false)
    in
    (match List.find_opt moved (List.init names Fun.id) with
    | Some i ->
        Array.iter
          (fun sc -> try ignore (verify sc i : int) with Wrong _ -> incr failures)
          scs
    | None -> incr failures);
    if Names.Reconciler.live reconciler <> names then incr failures;
    let final = Names.Reconciler.epoch reconciler in
    let convergence = ref 0. in
    Array.iter
      (fun sc ->
        if Names.Shard_clerk.epoch sc <> final then incr failures;
        Option.iter
          (fun st ->
            List.iter
              (fun (e, at) ->
                if e = final && Sim.Time.compare at st >= 0 then
                  convergence :=
                    Float.max !convergence (Sim.Time.to_us (Sim.Time.diff at st)))
              (Names.Shard_clerk.refreshes sc))
          !split_at)
      scs;
    ( !failures,
      [
        ("nameserver.convergence_us", !convergence);
        ("nameserver.lost", float_of_int !lost);
        ("nameserver.stale_served", float_of_int !stale);
      ] )
  in
  let read () =
    let stats = Array.to_list (Array.map Names.Shard_clerk.stats scs) in
    List.map
      (fun c -> (c, account_total stats c))
      [ "remote probes"; "lookup"; "map fetches"; "stale refetches"; "forward patches" ]
  in
  {
    testbed;
    rmems = !rmems;
    servers = List.init first_client Fun.id;
    clients = Array.init clients client;
    groups = [];
    at_half = Some rebalance;
    layer =
      deltas read (fun d ~ops:_ ->
          [
            ("nameserver.probes_per_lookup", ratio (d "remote probes") (d "lookup"));
            ("nameserver.map_fetches", d "map fetches");
            ("nameserver.stale_refetches", d "stale refetches");
            ("nameserver.forward_patches", d "forward patches");
          ]);
    post;
  }

(* ------------------------------------------------------------------ *)
(* bulk_stream: whole files through the pipelined issue engine on the
   two-node testbed (Table 2's shape).

   One stream alone would take the same simulated time for every read,
   and for every write, whatever the seed.  Two streams share node 0's
   CPU, NIC and link, so the seeded think times set how their ops
   interleave. *)

let block_bytes = 4096
let blocks = 16
let file_bytes = blocks * block_bytes
let files = 32
let patterns = 8
let streams = 2

let bulk_stream ~seed ~per_client =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let n0 = Cluster.Testbed.node testbed 0 and n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 and r1 = Rmem.Remote_memory.attach n1 in
  let space = Cluster.Node.new_address_space n0 in
  let desc =
    Cluster.Testbed.run testbed (fun () ->
        let seg =
          Rmem.Remote_memory.export r1
            ~space:(Cluster.Node.new_address_space n1)
            ~base:0 ~len:(files * file_bytes) ~rights:Rmem.Rights.all
            ~name:"bulk.files" ()
        in
        Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
          ~segment_id:(Rmem.Segment.id seg)
          ~generation:(Rmem.Segment.generation seg)
          ~size:(files * file_bytes) ~rights:Rmem.Rights.all ())
  in
  let prng = Sim.Prng.create ((seed * 7919) + 3) in
  (* Seeded contents, pre-cut into the blocks a write stages. *)
  let pool =
    Array.init patterns (fun _ ->
        Array.init blocks (fun _ ->
            Bytes.init block_bytes (fun _ -> Char.chr (Sim.Prng.int prng 256))))
  in
  let holds = Array.make files 0 in
  let per_stream = files / streams in
  (* Whole-file reads and writes in the proportion of Table 1a's Read
     File Data and Write File Data rows. *)
  let reads = Workload.Mix.calls_of "Read File Data" in
  let writes = Workload.Mix.calls_of "Write File Data" in
  let stream k =
    let pipeline =
      Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) r0
    in
    let addr = k * file_bytes in
    let buf = Rmem.Remote_memory.buffer ~space ~base:addr ~len:file_bytes in
    let write_file j pat () =
      let base = j * file_bytes in
      Array.iteri
        (fun i b -> Rmem.Pipeline.write pipeline desc ~off:(base + (i * block_bytes)) b)
        pool.(pat);
      (* The fence flushes the staged burst, then proves its deposit. *)
      Rmem.Pipeline.fence pipeline desc;
      holds.(j) <- pat;
      file_bytes
    in
    let read_file j () =
      let base = j * file_bytes in
      for i = 0 to blocks - 1 do
        Rmem.Pipeline.read_submit pipeline desc ~soff:(base + (i * block_bytes))
          ~count:block_bytes ~dst:buf ~doff:(i * block_bytes) ()
      done;
      Rmem.Pipeline.drain pipeline;
      let got = Cluster.Address_space.read space ~addr ~len:file_bytes in
      let want = pool.(holds.(j)) in
      for i = 0 to file_bytes - 1 do
        if Bytes.get got i <> Bytes.get want.(i / block_bytes) (i mod block_bytes) then
          raise (Wrong "read-back mismatch")
      done;
      file_bytes
    in
    for j = k * per_stream to ((k + 1) * per_stream) - 1 do
      ignore (write_file j (Sim.Prng.int prng patterns) () : int)
    done;
    let file () = (k * per_stream) + Sim.Prng.int prng per_stream in
    let ops =
      Array.init per_client (fun _ ->
          if Sim.Prng.int prng (reads + writes) < writes then
            write_file (file ()) (Sim.Prng.int prng patterns)
          else read_file (file ()))
    in
    (pipeline, { node = 0; group = 0; think_ns = think prng ~k per_client; ops })
  in
  (* Set-up writes every file once. *)
  let made = Cluster.Testbed.run testbed (fun () -> List.init streams stream) in
  let read () =
    let total f =
      List.fold_left
        (fun acc (p, _) -> acc +. float_of_int (f (Rmem.Pipeline.stats p)))
        0. made
    in
    [
      ("flushes", total (fun s -> s.flushes));
      ("merged", total (fun s -> s.merged_extents));
      ("stalls", total (fun s -> s.window_stalls));
    ]
  in
  {
    testbed;
    rmems = [ r0; r1 ];
    servers = [ 1 ];
    clients = Array.of_list (List.map snd made);
    groups = [];
    at_half = None;
    layer =
      deltas read (fun d ~ops ->
          [
            ("pipeline.flushes_per_op", d "flushes" /. ops);
            ("pipeline.merged_extents_per_op", d "merged" /. ops);
            ("pipeline.window_stalls_per_op", d "stalls" /. ops);
          ]);
    post = (fun () -> (0, []));
  }

(* ------------------------------------------------------------------ *)
(* dds_contended: the three hybrid structures under 80% mutations.     *)

let structures = [ "dds.hashtable"; "dds.queue"; "dds.register" ]

let dds_contended ~seed ~per_client =
  let per_structure = 8 and keys = 8 and mutate_pct = 80 in
  let clients = 3 * per_structure in
  let topology = Atm.Network.Clos { spines = 2; leaves = 8; hosts_per_leaf = 4 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:32 () in
  let nodes = 3 + clients in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let amsgs = Array.init nodes (fun i -> Amsg.attach (Cluster.Testbed.node testbed i)) in
  let key_of rank = Int32.of_int (1 + rank) in
  let kind = Dds.Kind.Hybrid in
  let tables, queues, registers =
    Cluster.Testbed.run testbed (fun () ->
        let table =
          Dds.Hashtable.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~slots:16 ()
        in
        for r = 0 to keys - 1 do
          ignore (Dds.Hashtable.local_insert table ~key:(key_of r) ~value:1l : bool)
        done;
        let queue =
          Dds.Queue.server ~rmem:rmems.(1) ~amsg:amsgs.(1)
            ~capacity:(per_structure * per_client) ()
        in
        let reps =
          Array.init 3 (fun r -> Dds.Register.replica ~rmem:rmems.(r) ~amsg:amsgs.(r) ())
        in
        let handle k f = f ~rmem:rmems.(3 + k) ~amsg:amsgs.(3 + k) in
        ( Array.init per_structure (fun k ->
              handle k (fun ~rmem ~amsg -> Dds.Hashtable.client ~rmem ~amsg ~kind table)),
          Array.init per_structure (fun k ->
              handle (per_structure + k) (fun ~rmem ~amsg ->
                  Dds.Queue.client ~rmem ~amsg ~kind queue)),
          Array.init per_structure (fun k ->
              handle ((2 * per_structure) + k) (fun ~rmem ~amsg ->
                  Dds.Register.client ~rmem ~amsg ~kind ~rank:(1 + k) reps)) ))
  in
  (* What each structure may legally return: values are unique per
     (client, op), so a value never written, or a ticket dequeued twice,
     is a wrong answer. *)
  let inserted = Hashtbl.create 4096 in
  List.iter (fun r -> Hashtbl.replace inserted (key_of r, 1l) ()) (List.init keys Fun.id);
  let enqueued = Hashtbl.create 4096 and dequeued = Hashtbl.create 4096 in
  let written = Hashtbl.create 4096 in
  Hashtbl.replace written 0l ();
  let prng = Sim.Prng.create ((seed * 7919) + 4) in
  let pick = Workload.Zipf.(sample (create ~exponent:1.5 keys)) in
  let value k i = Int32.of_int (1 + (k * 1_000_000) + i) in
  let op k i =
    let mutate = Sim.Prng.int prng 100 < mutate_pct in
    let v = value k i in
    match (k / per_structure, mutate) with
    | 0, false -> (
        let t = tables.(k) and key = key_of (pick prng) in
        fun () ->
          match Dds.Hashtable.lookup t key with
          | None -> 0
          | Some v ->
              if not (Hashtbl.mem inserted (key, v)) then raise (Wrong "phantom value");
              4)
    | 0, true when i mod 2 = 0 ->
        let t = tables.(k) and key = key_of (pick prng) in
        fun () ->
          ignore (Dds.Hashtable.delete t key : bool);
          0
    | 0, true ->
        let t = tables.(k) and key = key_of (pick prng) in
        fun () ->
          Hashtbl.replace inserted (key, v) ();
          Dds.Hashtable.insert t ~key ~value:v;
          4
    | 1, true ->
        let q = queues.(k - per_structure) in
        fun () ->
          Hashtbl.replace enqueued v ();
          ignore (Dds.Queue.enqueue q v : int);
          4
    | 1, false -> (
        let q = queues.(k - per_structure) in
        fun () ->
          match Dds.Queue.try_dequeue q with
          | None -> 0
          | Some v ->
              if (not (Hashtbl.mem enqueued v)) || Hashtbl.mem dequeued v then
                raise (Wrong "impossible dequeue");
              Hashtbl.replace dequeued v ();
              4)
    | _, true ->
        let r = registers.(k - (2 * per_structure)) in
        fun () ->
          Hashtbl.replace written v ();
          ignore (Dds.Register.write r v : Dds.Tag.t);
          4
    | _, false ->
        let r = registers.(k - (2 * per_structure)) in
        fun () ->
          if not (Hashtbl.mem written (Dds.Register.read r)) then
            raise (Wrong "phantom register value");
          4
  in
  let client k =
    {
      node = 3 + k;
      group = k / per_structure;
      think_ns = think prng ~k per_client;
      ops = Array.init per_client (op k);
    }
  in
  let sum f a = Array.fold_left (fun acc x -> acc +. float_of_int (f x)) 0. a in
  let read () =
    [
      ("msgs", sum Amsg.sent amsgs);
      ("handler_us", Array.fold_left (fun acc a -> acc +. Sim.Time.to_us (Amsg.handler_cpu a)) 0. amsgs);
      ("dds.hashtable.losses", sum Dds.Hashtable.cas_losses tables);
      ("dds.hashtable.fallbacks", sum Dds.Hashtable.rpc_fallbacks tables);
      ("dds.queue.losses", sum Dds.Queue.cas_losses queues);
      ("dds.queue.fallbacks", sum Dds.Queue.rpc_fallbacks queues);
      ("dds.register.losses", sum Dds.Register.cas_losses registers);
      ("dds.register.fallbacks", sum Dds.Register.rpc_fallbacks registers);
    ]
  in
  let group_ops = float_of_int (per_structure * per_client) in
  {
    testbed;
    rmems = Array.to_list rmems;
    servers = [ 0; 1; 2 ];
    clients = Array.init clients client;
    groups = structures;
    at_half = None;
    layer =
      deltas read (fun d ~ops ->
          [
            ("amsg.msgs_per_op", d "msgs" /. ops);
            ("amsg.handler_cpu_us_per_op", d "handler_us" /. ops);
          ]
          @ List.concat_map
              (fun s ->
                [
                  (s ^ ".cas_losses_per_op", d (s ^ ".losses") /. group_ops);
                  (s ^ ".rpc_fallback_frac", d (s ^ ".fallbacks") /. group_ops);
                ])
              structures);
    post = (fun () -> (0, []));
  }

type workload = {
  name : string;
  build : seed:int -> per_client:int -> rig;
  full : int;  (** ops per client in a full run *)
  smoke : int;  (** ... and in a smoke run *)
  run_s : float;  (** wall seconds a --seconds window budgets per full run *)
}

(* A full run measures half a second to two seconds of host CPU; [run_s]
   is its wall time on a 2-vCPU x86 VM, process and set-up included,
   plus a fifth spare.  Input sets, not run length, dominate the
   spread of the nfs_mix median (it sits where the latency density is
   low), so nfs_mix runs are shorter and more numerous.  The traced run
   uses a tenth, which still leaves a thousand samples per dds
   structure for its p99.  A smoke run is only big enough to exercise
   every layer. *)
let all =
  [
    { name = "nfs_mix"; build = nfs_mix; full = 10_000; smoke = 300; run_s = 0.9 };
    { name = "name_lookup"; build = name_lookup; full = 4_000; smoke = 25; run_s = 2.5 };
    { name = "bulk_stream"; build = bulk_stream; full = 1_000; smoke = 30; run_s = 2.4 };
    { name = "dds_contended"; build = dds_contended; full = 1_250; smoke = 50; run_s = 2.0 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
