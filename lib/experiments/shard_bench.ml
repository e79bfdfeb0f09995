(* Campaign: the sharded name service vs a single registry on a Clos
   fabric, at equal Zipf-keyed load.

   Each leg builds its own testbed: node 0 hosts the map segment,
   node 1 runs the reconciler, nodes 2..2+H-1 host the shard registry
   segments (H=1 for the baseline), and the clients occupy the next
   addresses.  Clients run concurrently, so contention shows up where
   the paper says it must: as output queueing on the links into the
   registry host(s).  Halfway through, every client reports its load
   and the reconciler rebalances — the sharded leg's mid-campaign
   split, which clients must heal from — by forwarding-tombstone patch
   or map refetch — with nothing lost and nothing served stale.  The
   sharded p99 must beat the baseline's, with no switch drop. *)

module T = Metrics.Table

type campaign = {
  label : string;
  nodes : int;
  shards_start : int;
  shards_end : int;
  clients : int;
  names : int;
  lookups : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  switch_drops : int;
  max_queue_depth : int;
  epoch : int;
  live : int;
  lost : int;
  stale_served : int;
  stale_refetches : int;
  mid_splits : int;
  on_final_epoch : int;  (* clients whose map ended on the final epoch *)
  convergence_us : float;
}

type cfg = {
  spines : int;
  leaves : int;
  hosts_per_leaf : int;
  shard_hosts : int;
  clients : int;
  names : int;
  lookups_per_client : int;
  slots : int;
  zipf : float;
  seed : int;
}

let svc_name i = Printf.sprintf "svc.%04d" i

let svc_record ~shard_hosts i =
  Names.Record.make ~name:(svc_name i)
    ~node:(2 + (i mod shard_hosts))
    ~segment_id:(1000 + i)
    ~generation:(Rmem.Generation.of_int 1)
    ~size:4096 ~rights:Rmem.Rights.read_only

let run_campaign ~label ~sharded cfg =
  let nodes = cfg.leaves * cfg.hosts_per_leaf in
  let shard_hosts = if sharded then cfg.shard_hosts else 1 in
  let first_client = 2 + shard_hosts in
  if first_client + cfg.clients > nodes then
    invalid_arg "Shard_bench: fabric too small for the configured roles";
  let topology =
    Atm.Network.Clos
      {
        spines = cfg.spines;
        leaves = cfg.leaves;
        hosts_per_leaf = cfg.hosts_per_leaf;
      }
  in
  let testbed = Cluster.Testbed.create ~topology ~nodes () in
  let engine = Cluster.Testbed.engine testbed in
  let latency = Metrics.Summary.create () and samples = ref [] in
  let lost = ref 0 and stale = ref 0 and completed = ref 0 in
  let mid_splits = ref 0 in
  let max_depth = ref 0 in
  let shards_start = ref 1 and shards_end = ref 1 in
  let final_epoch = ref 1 in
  let live = ref 0 in
  let refetches = ref 0 in
  let on_final_epoch = ref 0 in
  let convergence_us = ref 0. in
  Cluster.Testbed.run testbed (fun () ->
      let clerk i =
        Names.Clerk.create
          (Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
      in
      let map_clerk = clerk 0 in
      let recon_clerk = clerk 1 in
      let hosts = Array.init shard_hosts (fun k -> clerk (2 + k)) in
      let reconciler =
        Names.Reconciler.create ~slots:cfg.slots ~max_clients:nodes
          ~pace:(Sim.Time.us 150) ~map_clerk ~hosts recon_clerk
      in
      Names.Reconciler.serve_registrations reconciler;
      (* One shard per host before the campaign opens. *)
      if sharded then begin
        let rec grow () =
          let n = Names.Reconciler.shard_count reconciler in
          if n < shard_hosts then begin
            for id = 0 to n - 1 do
              if Names.Reconciler.shard_count reconciler < shard_hosts then
                ignore (Names.Reconciler.split reconciler id : int option)
            done;
            grow ()
          end
        in
        grow ()
      end;
      shards_start := Names.Reconciler.shard_count reconciler;
      let scs =
        Array.init cfg.clients (fun k ->
            Names.Shard_clerk.create ~map_hint:(Atm.Addr.of_int 0)
              ~reconciler_hint:(Atm.Addr.of_int 1)
              (clerk (first_client + k)))
      in
      (* Registration: control transfer through the reconciler, spread
         round-robin over the clients. *)
      for i = 0 to cfg.names - 1 do
        Names.Shard_clerk.register
          scs.(i mod cfg.clients)
          (svc_record ~shard_hosts i)
      done;
      (* Warm every client's map cache so the measured distribution is
         steady-state lookups, not first-touch imports. *)
      Array.iter
        (fun sc -> ignore (Names.Shard_clerk.lookup sc (svc_name 0)))
        scs;
      (* Rank r maps to name r, whose bucket the FNV hash scatters: the
         hot key lands in one shard. *)
      let dist = Workload.Zipf.create ~exponent:cfg.zipf cfg.names in
      let verify sc idx =
        match Names.Shard_clerk.lookup sc (svc_name idx) with
        | exception Names.Clerk.Name_not_found _ -> incr lost
        | r ->
            if
              r.Names.Record.segment_id <> 1000 + idx
              || not
                   (Rmem.Generation.equal r.Names.Record.generation
                      (Rmem.Generation.of_int 1))
            then incr stale
      in
      let measured_lookup sc idx =
        let t0 = Sim.Engine.now engine in
        verify sc idx;
        let us = Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0) in
        Metrics.Summary.add latency us;
        samples := us :: !samples;
        incr completed
      in
      (* Clients never pause: each reports its load every few lookups
         and keeps going, so the control plane rebalances concurrently
         with live traffic — the campaign's point is that a split is
         safe to take mid-flight, not at a quiet point. *)
      let half = Stdlib.max 1 (cfg.lookups_per_client / 2) in
      let report_every = Stdlib.max 2 (cfg.lookups_per_client / 4) in
      let phase1_done = ref 0 and all_done = ref 0 in
      Array.iteri
        (fun k sc ->
          Sim.Proc.spawn engine
            ~name:(Printf.sprintf "client.%d" k)
            (fun () ->
              let prng = Sim.Prng.create ((cfg.seed * 7919) + k) in
              (* Desynchronised open: real clients do not arrive in
                 lockstep, and a synchronized first wave would convoy at
                 whichever host owns the hot keys. *)
              Sim.Proc.wait (Sim.Time.us (1 + (k * 2) + Sim.Prng.int prng 400));
              for i = 1 to cfg.lookups_per_client do
                Sim.Proc.wait (Sim.Time.us (1 + Sim.Prng.int prng 40));
                measured_lookup sc (Workload.Zipf.sample dist prng);
                if i mod report_every = 0 then Names.Shard_clerk.report_load sc;
                if i = half then incr phase1_done
              done;
              incr all_done))
        scs;
      let stop_monitor = ref false in
      Sim.Proc.spawn engine ~name:"queue monitor" (fun () ->
          let switches = Atm.Network.switches (Cluster.Testbed.network testbed) in
          while not !stop_monitor do
            List.iter
              (fun sw ->
                max_depth := Stdlib.max !max_depth (Atm.Switch.queue_depth sw))
              switches;
            Sim.Proc.wait (Sim.Time.us 20)
          done);
      let wait_until f =
        while not (f ()) do
          Sim.Proc.wait (Sim.Time.us 50)
        done
      in
      (* The mid-campaign rebalance: once every client is half done the
         control plane reads the load rows and acts on the 2x-fair-share
         verdict, splitting the hottest shard while lookups keep
         flowing.  If the skew is under threshold this draw, the hot
         key's shard is split outright — the campaign's invariants are
         about converging through a mid-flight split, not about the
         trigger. *)
      let map_before = ref None in
      let split_time = ref None in
      let rebalance_done = ref (not sharded) in
      if sharded then
        Sim.Proc.spawn engine ~name:"rebalance" (fun () ->
            wait_until (fun () -> !phase1_done = cfg.clients);
            map_before := Some (Names.Reconciler.map reconciler);
            split_time := Some (Sim.Engine.now engine);
            (match Names.Reconciler.rebalance_once reconciler with
            | Names.Reconciler.Split _ -> incr mid_splits
            | Names.Reconciler.Balanced ->
                Option.iter
                  (fun id ->
                    if Names.Reconciler.split reconciler id <> None then
                      incr mid_splits)
                  (Names.Reconciler.shard_id_of_bucket reconciler
                     (Names.Shardmap.bucket_of_name (svc_name 0))));
            rebalance_done := true);
      wait_until (fun () -> !all_done = cfg.clients && !rebalance_done);
      (* Convergence probe: every client must find a record the first
         split migrated, healing onto the final epoch as it does. *)
      let map_after = Names.Reconciler.map reconciler in
      let moved =
        match !map_before with
        | None -> None
        | Some before ->
            let moved_owner i =
              let b = Names.Shardmap.bucket_of_name (svc_name i) in
              match
                (Names.Shardmap.owner before b, Names.Shardmap.owner map_after b)
              with
              | Some a, Some b ->
                  a.Names.Shardmap.node <> b.Names.Shardmap.node
                  || a.Names.Shardmap.segment_id <> b.Names.Shardmap.segment_id
              | _ -> false
            in
            let rec find i =
              if i >= cfg.names then None
              else if moved_owner i then Some i
              else find (i + 1)
            in
            find 0
      in
      (match moved with
      | Some i -> Array.iter (fun sc -> verify sc i) scs
      | None -> ());
      stop_monitor := true;
      shards_end := Names.Reconciler.shard_count reconciler;
      final_epoch := Names.Reconciler.epoch reconciler;
      live := Names.Reconciler.live reconciler;
      Array.iter
        (fun sc ->
          refetches := !refetches + Names.Shard_clerk.stale_refetches sc;
          if Names.Shard_clerk.epoch sc = !final_epoch then incr on_final_epoch;
          Option.iter
            (fun st ->
              List.iter
                (fun (e, at) ->
                  if e = !final_epoch && Sim.Time.compare at st >= 0 then
                    convergence_us :=
                      Stdlib.max !convergence_us
                        (Sim.Time.to_us (Sim.Time.diff at st)))
                (Names.Shard_clerk.refreshes sc))
            !split_time)
        scs);
  let switch_drops =
    List.fold_left
      (fun acc sw -> acc + Atm.Switch.drops sw)
      0
      (Atm.Network.switches (Cluster.Testbed.network testbed))
  in
  let sorted = Array.of_list !samples in
  Array.sort compare sorted;
  {
    label;
    nodes;
    shards_start = !shards_start;
    shards_end = !shards_end;
    clients = cfg.clients;
    names = cfg.names;
    lookups = !completed;
    mean_us = Metrics.Summary.mean latency;
    p50_us = Metrics.Summary.percentile sorted 0.50;
    p95_us = Metrics.Summary.percentile sorted 0.95;
    p99_us = Metrics.Summary.percentile sorted 0.99;
    switch_drops;
    max_queue_depth = !max_depth;
    epoch = !final_epoch;
    live = !live;
    lost = !lost;
    stale_served = !stale;
    stale_refetches = !refetches;
    mid_splits = !mid_splits;
    on_final_epoch = !on_final_epoch;
    convergence_us = !convergence_us;
  }

(* A 4x8x16 Clos (128 hosts), 8 shard hosts, 48 clients, 256 names,
   16 lookups per client under a Zipf(1.5) key mix.  The baseline leg
   runs the same load against one shard on one host and never
   rebalances. *)
let cfg =
  {
    spines = 4;
    leaves = 8;
    hosts_per_leaf = 16;
    shard_hosts = 8;
    clients = 48;
    names = 256;
    lookups_per_client = 16;
    slots = 1024;
    zipf = 1.5;
    seed = 9;
  }

let run () =
  let baseline = run_campaign ~label:"single registry" ~sharded:false cfg in
  let sharded = run_campaign ~label:"sharded" ~sharded:true cfg in
  let us = T.number ~unit_:"us" ~better:Lower in
  let count ?band name v =
    T.Val (T.number name (Fixed 0), T.num ?band (float_of_int v))
  in
  let int v = T.num (float_of_int v) in
  let row ?(p99 = []) ?(drops = []) c =
    [
      T.text c.label;
      T.text (Printf.sprintf "%d->%d" c.shards_start c.shards_end);
      int c.lookups;
      T.num c.p50_us;
      T.num c.p95_us;
      T.num ~band:p99 c.p99_us;
      T.num ~band:drops (float_of_int c.switch_drops);
      int c.max_queue_depth;
      int c.epoch;
      int c.stale_refetches;
      T.num c.convergence_us;
    ]
  in
  let integrity c =
    let none what v = count ~band:[ Le 0. ] (c.label ^ " " ^ what) v in
    let names = float_of_int c.names in
    [
      T.Lit (c.label ^ ": ");
      none "lost" c.lost;
      Lit " lost, ";
      none "stale-served" c.stale_served;
      Lit " stale-served, ";
      count ~band:[ Ge names; Le names ] (c.label ^ " live") c.live;
      Lit " of ";
      count (c.label ^ " names") c.names;
      Lit " names live, mean lookup ";
      Val (us (c.label ^ " mean") (Fixed 1), T.num c.mean_us);
      Lit " us";
    ]
  in
  (* Only the sharded leg rebalances, so only its line carries bands. *)
  let rebalance ?(gated = false) c =
    let band b = if gated then Some [ b ] else None in
    [
      T.Lit (c.label ^ ": ");
      count
        ?band:(band (T.Ge 1.))
        (c.label ^ " mid-campaign splits") c.mid_splits;
      Lit " mid-campaign split(s) to ";
      count
        ?band:(band (T.Gt (float_of_int c.shards_start)))
        (c.label ^ " shards at the end") c.shards_end;
      Lit " shard(s), ";
      count
        ?band:(band (T.Ge (float_of_int c.clients)))
        (c.label ^ " clients on the final epoch") c.on_final_epoch;
      Lit " of ";
      count (c.label ^ " clients") c.clients;
      Lit " clients on the final epoch";
    ]
  in
  T.make
    ~title:"Scale-out campaign: sharded name service vs single registry"
    [
      T.label "Leg";
      T.label ~align:Right "Shards";
      T.number "Lookups" (Fixed 0);
      us "p50 us" (Fixed 1);
      us "p95 us" (Fixed 1);
      us "p99 us" (Fixed 1);
      T.number ~better:Lower "Drops" (Fixed 0);
      T.number ~better:Lower "Queue" (Fixed 0);
      T.number "Epoch" (Fixed 0);
      T.number ~better:Lower "Refetch" (Fixed 0);
      us "Conv us" (Fixed 1);
    ]
    [
      row baseline;
      row ~p99:[ Lt baseline.p99_us ] ~drops:[ Le 0. ] sharded;
    ]
    ~notes:
      [
        [
          count "hosts" sharded.nodes;
          Lit
            (Printf.sprintf " hosts, Zipf(%.1f) keys, %d lookups per client"
               cfg.zipf cfg.lookups_per_client);
        ];
        integrity baseline;
        integrity sharded;
        rebalance baseline;
        rebalance ~gated:true sharded;
      ]
