(* The distributed data-structure campaign (PR10): DX vs RPC vs hybrid
   for the hash table, the ticket queue and the ABD register, on a Clos
   fabric at two operating points.

   Each point builds its own testbed.  Node 0 hosts the hash table and
   queue segments; the register's three replica cells live on nodes
   0..2; clients occupy addresses from 3 up and run concurrently, so
   contention shows up where the paper says it must — as optimistic
   concurrency-control losses on the structure's hot words and as
   queueing on the links into the home host(s).

   The two legs reproduce the crossover finding: on the low-contention
   lookup-heavy leg pure data transfer wins (a lookup is one wire
   transaction against a passive segment, where the RPC structuring
   pays two messages plus the home CPU's stub and procedure); on the
   high-contention mutation-heavy leg control transfer wins it back
   (the home CPU serializes mutations for the price of one round trip,
   where DX burns extra wire transactions on probe walks, CAS claims
   and busy-retry backoff against the same hot words). *)

type point = {
  structure : string;  (** "hashtable" | "queue" | "register" *)
  kind : string;  (** "dx" | "rpc" | "hybrid" *)
  leg : string;  (** "low" | "high" *)
  clients : int;
  zipf : float;
  mutate_pct : int;
  ops : int;  (** completed operations across all clients *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  cas_losses : int;
  rpc_fallbacks : int;
  switch_drops : int;
}

type result = { nodes : int; points : point list }

let schema_version = 1
let structures = [ "hashtable"; "queue"; "register" ]

type legcfg = {
  leg_label : string;
  leg_clients : int;
  leg_zipf : float;
  leg_mutate_pct : int;
}

type cfg = {
  spines : int;
  leaves : int;
  hosts_per_leaf : int;
  ops_per_client : int;
  keys : int;
  slots : int;
  seed : int;
  low : legcfg;
  high : legcfg;
}

(* One operation issued by client [k]: [i] counts the client's ops and
   decides the mutation flavor deterministically (insert/delete and
   enqueue/dequeue alternate, so mutation-heavy legs exercise claim
   words in both directions). *)
type driver = {
  op : prng:Sim.Prng.t -> k:int -> i:int -> unit;
  losses : unit -> int;
  fallbacks : unit -> int;
}

let run_point cfg ~structure ~kind (leg : legcfg) =
  let nodes = cfg.leaves * cfg.hosts_per_leaf in
  let clients = leg.leg_clients in
  if 3 + clients > nodes then
    invalid_arg "Dds_bench: fabric too small for the configured clients";
  let topology =
    Atm.Network.Clos
      {
        spines = cfg.spines;
        leaves = cfg.leaves;
        hosts_per_leaf = cfg.hosts_per_leaf;
      }
  in
  let testbed = Cluster.Testbed.create ~seed:cfg.seed ~topology ~nodes () in
  let engine = Cluster.Testbed.engine testbed in
  let node i = Cluster.Testbed.node testbed i in
  let rmems = Array.init (3 + clients) (fun i -> Rmem.Remote_memory.attach (node i)) in
  let amsgs = Array.init (3 + clients) (fun i -> Amsg.attach (node i)) in
  let hist = Metrics.Histogram.create () in
  let completed = ref 0 in
  let losses = ref 0 and fallbacks = ref 0 in
  let dist = Workload.Zipf.create ~exponent:leg.leg_zipf cfg.keys in
  let key_of rank = Int32.of_int (1 + rank) in
  Cluster.Testbed.run testbed (fun () ->
      (* The structure under test, as one uniform op driver. *)
      let driver =
        match structure with
        | "hashtable" ->
            let s =
              Dds.Hashtable.server ~rmem:rmems.(0) ~amsg:amsgs.(0)
                ~slots:cfg.slots ()
            in
            (* Preload the keyspace so the read mix hits live slots. *)
            for r = 0 to cfg.keys - 1 do
              ignore (Dds.Hashtable.local_insert s ~key:(key_of r) ~value:1l)
            done;
            let ts =
              Array.init clients (fun k ->
                  Dds.Hashtable.client ~rmem:rmems.(3 + k) ~amsg:amsgs.(3 + k)
                    ~kind s)
            in
            {
              op =
                (fun ~prng ~k ~i ->
                  let key = key_of (Workload.Zipf.sample dist prng) in
                  if Sim.Prng.int prng 100 < leg.leg_mutate_pct then
                    if i mod 2 = 0 then ignore (Dds.Hashtable.delete ts.(k) key)
                    else
                      Dds.Hashtable.insert ts.(k) ~key
                        ~value:(Int32.of_int (1 + (k * 100) + i))
                  else ignore (Dds.Hashtable.lookup ts.(k) key));
              losses =
                (fun () ->
                  Array.fold_left
                    (fun a t -> a + Dds.Hashtable.cas_losses t)
                    0 ts);
              fallbacks =
                (fun () ->
                  Array.fold_left
                    (fun a t -> a + Dds.Hashtable.rpc_fallbacks t)
                    0 ts);
            }
        | "queue" ->
            let s =
              Dds.Queue.server ~rmem:rmems.(0) ~amsg:amsgs.(0)
                ~capacity:(clients * cfg.ops_per_client) ()
            in
            let ts =
              Array.init clients (fun k ->
                  Dds.Queue.client ~rmem:rmems.(3 + k) ~amsg:amsgs.(3 + k)
                    ~kind s)
            in
            {
              op =
                (fun ~prng ~k ~i:_ ->
                  if Sim.Prng.int prng 100 < leg.leg_mutate_pct then
                    ignore (Dds.Queue.enqueue ts.(k) (Int32.of_int (1 + k)))
                  else ignore (Dds.Queue.try_dequeue ts.(k)));
              losses =
                (fun () ->
                  Array.fold_left (fun a t -> a + Dds.Queue.cas_losses t) 0 ts);
              fallbacks =
                (fun () ->
                  Array.fold_left
                    (fun a t -> a + Dds.Queue.rpc_fallbacks t)
                    0 ts);
            }
        | "register" ->
            let reps =
              Array.init 3 (fun r ->
                  Dds.Register.replica ~rmem:rmems.(r) ~amsg:amsgs.(r) ())
            in
            let ts =
              Array.init clients (fun k ->
                  Dds.Register.client ~rmem:rmems.(3 + k) ~amsg:amsgs.(3 + k)
                    ~kind ~rank:(1 + k) reps)
            in
            {
              op =
                (fun ~prng ~k ~i ->
                  if Sim.Prng.int prng 100 < leg.leg_mutate_pct then
                    ignore
                      (Dds.Register.write ts.(k) (Int32.of_int (1 + (k * 100) + i)))
                  else ignore (Dds.Register.read ts.(k)));
              losses =
                (fun () ->
                  Array.fold_left
                    (fun a t -> a + Dds.Register.cas_losses t)
                    0 ts);
              fallbacks =
                (fun () ->
                  Array.fold_left
                    (fun a t -> a + Dds.Register.rpc_fallbacks t)
                    0 ts);
            }
        | s -> invalid_arg ("Dds_bench: unknown structure " ^ s)
      in
      let finished = ref 0 in
      for k = 0 to clients - 1 do
        Cluster.Node.spawn (node (3 + k)) (fun () ->
            let prng = Sim.Prng.create ((cfg.seed * 8191) + k) in
            (* Desynchronised open, as in the scale-out campaign. *)
            Sim.Proc.wait (Sim.Time.us (1 + (k * 2) + Sim.Prng.int prng 50));
            for i = 1 to cfg.ops_per_client do
              Sim.Proc.wait (Sim.Time.us (1 + Sim.Prng.int prng 10));
              let t0 = Sim.Engine.now engine in
              driver.op ~prng ~k ~i;
              Metrics.Histogram.add hist
                (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0));
              incr completed
            done;
            incr finished)
      done;
      while !finished < clients do
        Sim.Proc.wait (Sim.Time.us 50)
      done;
      losses := driver.losses ();
      fallbacks := driver.fallbacks ());
  let switch_drops =
    List.fold_left
      (fun acc sw -> acc + Atm.Switch.drops sw)
      0
      (Atm.Network.switches (Cluster.Testbed.network testbed))
  in
  {
    structure;
    kind = Dds.Kind.to_string kind;
    leg = leg.leg_label;
    clients;
    zipf = leg.leg_zipf;
    mutate_pct = leg.leg_mutate_pct;
    ops = !completed;
    mean_us = Metrics.Summary.mean (Metrics.Histogram.summary hist);
    p50_us = Metrics.Histogram.percentile hist 50.;
    p95_us = Metrics.Histogram.percentile hist 95.;
    p99_us = Metrics.Histogram.percentile hist 99.;
    cas_losses = !losses;
    rpc_fallbacks = !fallbacks;
    switch_drops;
  }

let run_cfg ?(structures = structures) cfg =
  let points =
    List.concat_map
      (fun structure ->
        List.concat_map
          (fun kind ->
            List.map
              (fun leg -> run_point cfg ~structure ~kind leg)
              [ cfg.low; cfg.high ])
          Dds.Kind.all)
      structures
  in
  { nodes = cfg.leaves * cfg.hosts_per_leaf; points }

(* The full sweep: a 2x8x4 Clos; 2 clients at Zipf(0.2) with 5%
   mutations against 12 at Zipf(1.5) with 80%. *)
let full_cfg ~seed =
  {
    spines = 2;
    leaves = 8;
    hosts_per_leaf = 4;
    ops_per_client = 24;
    keys = 8;
    slots = 16;
    seed;
    low =
      { leg_label = "low"; leg_clients = 2; leg_zipf = 0.2; leg_mutate_pct = 5 };
    high =
      {
        leg_label = "high";
        leg_clients = 12;
        leg_zipf = 1.5;
        leg_mutate_pct = 80;
      };
  }

let run ?(seed = 10) ?structures () = run_cfg ?structures (full_cfg ~seed)

let smoke ?(seed = 10) ?structures () =
  let c = full_cfg ~seed in
  run_cfg ?structures
    {
      c with
      leaves = 4;
      ops_per_client = 16;
      high = { c.high with leg_clients = 10 };
    }

(* ------------------------------- gates ------------------------------ *)

let find result ~structure ~kind ~leg =
  List.find_opt
    (fun p -> p.structure = structure && p.kind = kind && p.leg = leg)
    result.points

let crossover result structure =
  match
    ( find result ~structure ~kind:"dx" ~leg:"low",
      find result ~structure ~kind:"rpc" ~leg:"low",
      find result ~structure ~kind:"dx" ~leg:"high",
      find result ~structure ~kind:"rpc" ~leg:"high",
      find result ~structure ~kind:"hybrid" ~leg:"high" )
  with
  | Some dl, Some rl, Some dh, Some rh, Some hh ->
      let dx_wins_low = dl.mean_us < rl.mean_us in
      let ct_wins_high = Float.min rh.mean_us hh.mean_us < dh.mean_us in
      Some (dx_wins_low, ct_wins_high)
  | _ -> None

let min_crossovers = 2

let check result =
  let sanity = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> sanity := m :: !sanity) fmt in
  List.iter
    (fun p ->
      if p.ops <= 0 then
        fail "%s/%s/%s: no operations completed" p.structure p.kind p.leg;
      if p.mean_us <= 0. then
        fail "%s/%s/%s: non-positive mean latency" p.structure p.kind p.leg)
    result.points;
  let in_scope =
    List.filter
      (fun s -> find result ~structure:s ~kind:"dx" ~leg:"low" <> None)
      structures
  in
  let crossed =
    List.filter
      (fun s ->
        match crossover result s with Some (true, true) -> true | _ -> false)
      in_scope
  in
  (* The headline gate: the crossover must reproduce on at least two of
     the three structures.  On a miss, the per-structure detail says
     which leg each non-crossing structure lost. *)
  let headline =
    if List.length crossed >= min_crossovers then []
    else
      Printf.sprintf "crossover reproduced on %d structure(s) [%s], need >= %d"
        (List.length crossed) (String.concat ", " crossed) min_crossovers
      :: List.concat_map
           (fun s ->
             match crossover result s with
             | Some (true, true) -> []
             | Some (dx_low, ct_high) ->
                 (if dx_low then []
                  else
                    [
                      s ^ ": DX did not win the low-contention lookup-heavy leg";
                    ])
                 @
                 if ct_high then []
                 else
                   [
                     s
                     ^ ": neither RPC nor hybrid won the high-contention \
                        mutation-heavy leg";
                   ]
             | None -> [ s ^ ": incomplete sweep (missing points)" ])
           in_scope
  in
  List.rev !sanity @ headline

(* ------------------------------- report ----------------------------- *)

let json_of_point p =
  Printf.sprintf
    "    {\"structure\": \"%s\", \"kind\": \"%s\", \"leg\": \"%s\", \
     \"clients\": %d, \"zipf\": %.2f, \"mutate_pct\": %d, \"ops\": %d, \
     \"mean_us\": %.2f, \"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": \
     %.2f, \"cas_losses\": %d, \"rpc_fallbacks\": %d, \"switch_drops\": %d}"
    p.structure p.kind p.leg p.clients p.zipf p.mutate_pct p.ops p.mean_us
    p.p50_us p.p95_us p.p99_us p.cas_losses p.rpc_fallbacks p.switch_drops

let to_json result =
  let failures = check result in
  let crossed =
    List.filter
      (fun s -> match crossover result s with Some (true, true) -> true | _ -> false)
      structures
  in
  String.concat "\n"
    [
      "{";
      "  \"bench\": \"dds\",";
      Printf.sprintf "  \"schema_version\": %d," schema_version;
      Printf.sprintf "  \"nodes\": %d," result.nodes;
      Printf.sprintf "  \"checks_passed\": %b," (failures = []);
      Printf.sprintf "  \"failures\": [%s],"
        (String.concat ", "
           (List.map (fun f -> Printf.sprintf "\"%s\"" f) failures));
      Printf.sprintf "  \"crossover_structures\": [%s],"
        (String.concat ", "
           (List.map (fun s -> Printf.sprintf "\"%s\"" s) crossed));
      "  \"points\": [";
      String.concat ",\n" (List.map json_of_point result.points);
      "  ]";
      "}";
      "";
    ]

let render result =
  let module T = Metrics.Table in
  let right = T.label ~align:Right in
  let table =
    T.make
      ~title:
        "DDS campaign: DX vs RPC vs hybrid at two operating points (PR10)"
      [
        T.label "Structure";
        T.label "Kind";
        T.label "Leg";
        right "Clients";
        right "Mutate %";
        right "Ops";
        right "Mean us";
        right "p95 us";
        right "Losses";
        right "Fallbacks";
      ]
      (List.map
         (fun p ->
           List.map T.text
             [
               p.structure;
               p.kind;
               p.leg;
               string_of_int p.clients;
               string_of_int p.mutate_pct;
               string_of_int p.ops;
               Printf.sprintf "%.1f" p.mean_us;
               Printf.sprintf "%.1f" p.p95_us;
               string_of_int p.cas_losses;
               string_of_int p.rpc_fallbacks;
             ])
         result.points)
  in
  let failures = check result in
  T.render table
  ^
  match failures with
  | [] -> "  dds bench gates: all passed (crossover reproduced)\n"
  | fs -> String.concat "" (List.map (Printf.sprintf "  GATE FAILED: %s\n") fs)
