(* Campaign: the distributed data structures, DX vs RPC vs hybrid
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
   and busy-retry backoff against the same hot words).  The crossover
   must hold on at least two of the three structures. *)

module T = Metrics.Table

type point = {
  structure : string;
  kind : string;
  leg : string;
  clients : int;
  mutate_pct : int;
  ops : int;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  cas_losses : int;
  rpc_fallbacks : int;
  switch_drops : int;
}

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
  let latency = Metrics.Summary.create () and samples = ref [] in
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
              let us =
                Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0)
              in
              Metrics.Summary.add latency us;
              samples := us :: !samples;
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
  let sorted = Array.of_list !samples in
  Array.sort compare sorted;
  {
    structure;
    kind = Dds.Kind.to_string kind;
    leg = leg.leg_label;
    clients;
    mutate_pct = leg.leg_mutate_pct;
    ops = !completed;
    mean_us = Metrics.Summary.mean latency;
    p50_us = Metrics.Summary.percentile sorted 0.50;
    p95_us = Metrics.Summary.percentile sorted 0.95;
    p99_us = Metrics.Summary.percentile sorted 0.99;
    cas_losses = !losses;
    rpc_fallbacks = !fallbacks;
    switch_drops;
  }

(* A 2x8x4 Clos; 2 clients at Zipf(0.2) with 5% mutations against 12
   at Zipf(1.5) with 80%; 24 operations per client over 8 keys in a
   16-slot table (load factor high enough that mutation churn lengthens
   the probe chains DX pays for one wire transaction per step). *)
let cfg =
  {
    spines = 2;
    leaves = 8;
    hosts_per_leaf = 4;
    ops_per_client = 24;
    keys = 8;
    slots = 16;
    seed = 10;
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

let structures = [ "hashtable"; "queue"; "register" ]

let sweep () =
  List.concat_map
    (fun structure ->
      List.concat_map
        (fun kind ->
          List.map
            (fun leg -> run_point cfg ~structure ~kind leg)
            [ cfg.low; cfg.high ])
        Dds.Kind.all)
    structures

let report points =
  (* A missing point's mean is nan, so no comparison with it holds. *)
  let mean structure kind leg =
    match
      List.find_opt
        (fun p -> p.structure = structure && p.kind = kind && p.leg = leg)
        points
    with
    | Some p -> p.mean_us
    | None -> Float.nan
  in
  let structures =
    List.filter
      (fun s -> List.exists (fun p -> p.structure = s) points)
      structures
  in
  let flag name b =
    T.Val (T.label name, { T.value = Flag b; paper = None; band = [] })
  in
  let crossover s =
    let dx_low = mean s "dx" "low" < mean s "rpc" "low" in
    let ct_high =
      Float.min (mean s "rpc" "high") (mean s "hybrid" "high")
      < mean s "dx" "high"
    in
    (dx_low && ct_high, [
      T.Lit (s ^ ": DX wins the low leg ");
      flag (s ^ " DX wins low") dx_low;
      Lit ", RPC or hybrid wins the high leg ";
      flag (s ^ " control wins high") ct_high;
      Lit ", crossed ";
      flag (s ^ " crossed") (dx_low && ct_high);
    ])
  in
  (* The tails the grid leaves out: p50/p99 per kind, low leg then high. *)
  let tails s =
    let us name v = T.Val (T.number ~unit_:"us" name (Fixed 1), T.num v) in
    T.Lit (s ^ " p50/p99 us, low then high:")
    :: List.concat_map
         (fun p ->
           let name = String.concat " " [ s; p.kind; p.leg ] in
           [
             T.Lit
               (if p.leg = "low" then
                  (if p.kind = "dx" then " " else "; ") ^ p.kind ^ " "
                else ", ");
             us (name ^ " p50") p.p50_us;
             Lit "/";
             us (name ^ " p99") p.p99_us;
           ])
         (List.filter (fun p -> p.structure = s) points)
  in
  let crossed, per_structure =
    List.fold_right
      (fun s (n, notes) ->
        let crossed, note = crossover s in
        ((if crossed then n + 1 else n), note :: tails s :: notes))
      structures (0, [])
  in
  let count ?band name v =
    T.Val (T.number name (Fixed 0), T.num ?band (float_of_int v))
  in
  let int v = T.num (float_of_int v) in
  T.make ~title:"DDS campaign: DX vs RPC vs hybrid at two operating points"
    [
      T.label "Structure";
      T.label "Kind";
      T.label "Leg";
      T.number "Clients" (Fixed 0);
      T.number ~unit_:"%" "Mutate %" (Fixed 0);
      T.number ~better:Higher "Ops" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Mean us" (Fixed 1);
      T.number ~unit_:"us" ~better:Lower "p95 us" (Fixed 1);
      T.number ~better:Lower "Losses" (Fixed 0);
      T.number "Fallbacks" (Fixed 0);
    ]
    (List.map
       (fun p ->
         [
           T.text p.structure;
           T.text p.kind;
           T.text p.leg;
           int p.clients;
           int p.mutate_pct;
           T.num ~band:[ Gt 0. ] (float_of_int p.ops);
           T.num ~band:[ Gt 0. ] p.mean_us;
           T.num p.p95_us;
           int p.cas_losses;
           int p.rpc_fallbacks;
         ])
       points)
    ~notes:
      ([
         [
           count "hosts" (cfg.leaves * cfg.hosts_per_leaf);
           Lit " hosts; keys Zipf(";
           Val (T.number "low zipf" (Fixed 1), T.num cfg.low.leg_zipf);
           Lit ") on the low leg, Zipf(";
           Val (T.number "high zipf" (Fixed 1), T.num cfg.high.leg_zipf);
           Lit ") on the high; ";
           count "switch drops"
             (List.fold_left (fun acc p -> acc + p.switch_drops) 0 points);
           Lit " switch drops";
         ];
       ]
      @ per_structure
      @ [
          [
            Lit "structures crossed: ";
            count ~band:[ Ge 2. ] "structures crossed" crossed;
            Lit " of ";
            count "structures" (List.length structures);
          ];
        ])

let run () = report (sweep ())
