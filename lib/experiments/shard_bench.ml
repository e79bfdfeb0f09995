(* The scale-out campaign (PR9): sharded name service vs a single
   registry on a Clos fabric, at equal Zipf-keyed load.

   Each leg builds its own testbed: node 0 hosts the map segment,
   node 1 runs the reconciler, nodes 2..2+H-1 host the shard registry
   segments (H=1 for the baseline), and the clients occupy the next
   addresses.  Clients run concurrently, so contention shows up where
   the paper says it must: as output queueing on the links into the
   registry host(s).  Halfway through, every client reports its load
   and the reconciler rebalances — the sharded leg's mid-campaign
   split, which clients must heal from — by forwarding-tombstone patch
   or map refetch — with nothing lost and nothing served stale. *)

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
  converged : bool;
  convergence_us : float;
}

type result = { baseline : campaign; sharded : campaign }

let schema_version = 1

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
  let hist = Metrics.Histogram.create () in
  let lost = ref 0 and stale = ref 0 and completed = ref 0 in
  let mid_splits = ref 0 in
  let max_depth = ref 0 in
  let shards_start = ref 1 and shards_end = ref 1 in
  let final_epoch = ref 1 in
  let live = ref 0 in
  let refetches = ref 0 in
  let converged = ref true in
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
        Metrics.Histogram.add hist
          (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0));
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
          if Names.Shard_clerk.epoch sc <> !final_epoch then converged := false;
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
  {
    label;
    nodes;
    shards_start = !shards_start;
    shards_end = !shards_end;
    clients = cfg.clients;
    names = cfg.names;
    lookups = !completed;
    mean_us = Metrics.Summary.mean (Metrics.Histogram.summary hist);
    p50_us = Metrics.Histogram.percentile hist 50.;
    p95_us = Metrics.Histogram.percentile hist 95.;
    p99_us = Metrics.Histogram.percentile hist 99.;
    switch_drops;
    max_queue_depth = !max_depth;
    epoch = !final_epoch;
    live = !live;
    lost = !lost;
    stale_served = !stale;
    stale_refetches = !refetches;
    mid_splits = !mid_splits;
    converged = !converged;
    convergence_us = !convergence_us;
  }

let run_cfg cfg =
  {
    baseline = run_campaign ~label:"single registry" ~sharded:false cfg;
    sharded = run_campaign ~label:"sharded" ~sharded:true cfg;
  }

let run ?(seed = 9) () =
  run_cfg
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
      seed;
    }

let smoke ?(seed = 9) () =
  run_cfg
    {
      spines = 2;
      leaves = 4;
      hosts_per_leaf = 4;
      shard_hosts = 4;
      clients = 10;
      names = 48;
      lookups_per_client = 12;
      slots = 256;
      zipf = 1.5;
      seed;
    }

let check { baseline; sharded } =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if not (sharded.p99_us < baseline.p99_us) then
    fail "sharded p99 %.1fus not below single-registry p99 %.1fus"
      sharded.p99_us baseline.p99_us;
  if sharded.switch_drops <> 0 then
    fail "%d switch drop(s) at the gated operating point" sharded.switch_drops;
  List.iter
    (fun c ->
      if c.lost <> 0 then fail "%s: %d lookup(s) lost a registration" c.label c.lost;
      if c.stale_served <> 0 then
        fail "%s: %d lookup(s) served stale coordinates" c.label c.stale_served;
      if c.live <> c.names then
        fail "%s: %d live record(s), expected %d" c.label c.live c.names)
    [ baseline; sharded ];
  if sharded.mid_splits < 1 then fail "no mid-campaign rebalance split";
  if sharded.shards_end <= sharded.shards_start then
    fail "rebalance did not grow the shard count";
  if not sharded.converged then
    fail "a client finished off the final epoch (no convergence)";
  List.rev !failures

let json_of_campaign c =
  Printf.sprintf
    "    {\"label\": \"%s\", \"nodes\": %d, \"shards_start\": %d, \
     \"shards_end\": %d, \"clients\": %d, \"names\": %d, \"lookups\": %d, \
     \"mean_us\": %.2f, \"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, \
     \"switch_drops\": %d, \"max_queue_depth\": %d, \"epoch\": %d, \
     \"live\": %d, \"lost\": %d, \"stale_served\": %d, \"stale_refetches\": \
     %d, \"mid_splits\": %d, \"converged\": %b, \"convergence_us\": %.2f}"
    c.label c.nodes c.shards_start c.shards_end c.clients c.names c.lookups
    c.mean_us c.p50_us c.p95_us c.p99_us c.switch_drops c.max_queue_depth
    c.epoch c.live c.lost c.stale_served c.stale_refetches c.mid_splits
    c.converged c.convergence_us

let to_json result =
  let failures = check result in
  String.concat "\n"
    [
      "{";
      "  \"bench\": \"shard\",";
      Printf.sprintf "  \"schema_version\": %d," schema_version;
      Printf.sprintf "  \"checks_passed\": %b," (failures = []);
      Printf.sprintf "  \"failures\": [%s],"
        (String.concat ", "
           (List.map (fun f -> Printf.sprintf "\"%s\"" f) failures));
      "  \"campaigns\": [";
      json_of_campaign result.baseline ^ ",";
      json_of_campaign result.sharded;
      "  ]";
      "}";
      "";
    ]

let render result =
  let module T = Metrics.Table in
  let right = T.label ~align:Right in
  let table =
    T.make
      ~title:"Scale-out campaign: sharded name service vs single registry (PR9)"
      [
        T.label "Leg";
        right "Shards";
        right "Lookups";
        right "p50 us";
        right "p95 us";
        right "p99 us";
        right "Drops";
        right "Queue";
        right "Epoch";
        right "Refetch";
        right "Conv us";
      ]
      (List.map
         (fun c ->
           List.map T.text
             [
               c.label;
               Printf.sprintf "%d->%d" c.shards_start c.shards_end;
               string_of_int c.lookups;
               Printf.sprintf "%.1f" c.p50_us;
               Printf.sprintf "%.1f" c.p95_us;
               Printf.sprintf "%.1f" c.p99_us;
               string_of_int c.switch_drops;
               string_of_int c.max_queue_depth;
               string_of_int c.epoch;
               string_of_int c.stale_refetches;
               Printf.sprintf "%.1f" c.convergence_us;
             ])
         [ result.baseline; result.sharded ])
  in
  let failures = check result in
  T.render table
  ^
  match failures with
  | [] -> "  shard bench gates: all passed\n"
  | fs -> String.concat "" (List.map (Printf.sprintf "  GATE FAILED: %s\n") fs)
