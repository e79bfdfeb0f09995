(* The workload catalog.  Entries are assembled from [entry] by facets,
   one per builder, each filling the checker expectations that builder
   serves.  Record order is output order; a view that mixes builder
   kinds groups them in order of first appearance. *)

module Body = Body

type prepare = unit -> Analysis.Scenarios.prep
type race = { prepare : prepare; races : bool; findings : bool }
type expect = Clean | Fails of string
type model = { prepare : prepare; expect : expect }

type history =
  | Fifo of { source : string; prepare : prepare }
  | Fault_free of Faults.Campaign.workload

type program = {
  kind : string;
  program : Workload.Program.t;
  rules : string list;
  ordered : bool;
  confirm : (prepare * string) option;
}

type leg = { label : string; plan : Faults.Plan.t; seed : int; chain : bool }
type campaign = { run : Faults.Campaign.workload; legs : leg list }

type replay = {
  spans : Obs.Trace.t;
  registry : Obs.Registry.t;
  verdict : Body.verdict;
}

type trace = { replay : unit -> replay; decomposes : bool }

type t = {
  name : string;
  doc : string;
  race : race option;
  model : model option;
  lin : history list;
  proto : program list;
  campaign : campaign option;
  trace : trace option;
}

let entry name doc =
  {
    name;
    doc;
    race = None;
    model = None;
    lin = [];
    proto = [];
    campaign = None;
    trace = None;
  }

(* A scenario: race checks its FIFO run; with [explore], model explores
   its schedules and lin checks its FIFO history. *)
let scenario ?(races = false) ?(findings = false) ?explore prepare e =
  {
    e with
    race = Some { prepare; races; findings };
    model = Option.map (fun expect -> { prepare; expect }) explore;
    lin =
      (if explore = None then e.lin
       else e.lin @ [ Fifo { source = "scenario"; prepare } ]);
  }

(* A FIFO history for lin alone, under its own source label. *)
let history source prepare e =
  { e with lin = e.lin @ [ Fifo { source; prepare } ] }

(* A campaign: chaos and obs run it, the chaos CI matrix runs [legs],
   and (unless it restarts endpoints mid-history) lin checks its
   fault-free history. *)
let campaign ?(lin = true) legs run e =
  {
    e with
    campaign = Some { run; legs };
    lin = (if lin then e.lin @ [ Fault_free run ] else e.lin);
  }

(* A declared program for proto.  [confirmed]: its static finding is
   cross-confirmed by exploring the entry's seeded bug, so the entry's
   [scenario] facet must come first. *)
let program ?(rules = []) ?(ordered = false) ?(confirmed = false) kind p e =
  let confirm =
    match e.model with
    | _ when not confirmed -> None
    | Some { prepare; expect = Fails failure } -> Some (prepare, failure)
    | _ -> invalid_arg (e.name ^ ": a confirmed program needs a seeded bug")
  in
  let p = { kind; program = p; rules; ordered; confirm } in
  { e with proto = e.proto @ [ p ] }

(* An example body for trace: it runs silently, the tracer attached
   after the rig is built (after a fixture's warm-up) and detached once
   the run is quiescent. *)
let traced ?(decomposes = false) (launch : Body.launch) e =
  let replay () =
    let engine, run = launch ~say:ignore in
    let registry = Obs.Registry.create () in
    let spans = Obs.Trace.create ~registry engine in
    Obs.Trace.attach spans;
    let verdict = Fun.protect ~finally:Obs.Trace.detach run in
    Obs.Trace.finalize spans;
    { spans; registry; verdict }
  in
  { e with trace = Some { replay; decomposes } }

let leg ?(chain = false) label plan seed = { label; plan; seed; chain }

(* The chaos matrix's loss legs: 0 / 1% / 10% loss, seeded [base] plus
   the loss in per-mille. *)
let lossy base =
  List.map
    (fun loss ->
      leg
        (Printf.sprintf "loss %.0f%%" (loss *. 100.))
        (Faults.Campaign.loss_plan loss)
        (base + int_of_float (loss *. 1000.)))
    [ 0.0; 0.01; 0.10 ]

module S = Analysis.Scenarios
module P = Workload.Programs
module C = Faults.Campaign
module B = Body

let all =
  [
    entry "kv_store" "two clients write/fence/read their own server-table slots"
    |> scenario ~explore:Clean S.kv_store
    |> program "scenario" P.kv_store;
    entry "producer_consumer"
      "producers feed a consumer ring by CAS tickets and notify doorbells"
    |> scenario ~explore:Clean S.producer_consumer
    |> program ~ordered:true "scenario" P.producer_consumer
    |> campaign (lossy 1034) C.producer_consumer
    |> program "campaign" P.campaign_producer_consumer
    |> traced (B.launch B.producer_consumer);
    entry "file_service"
      "two clients update one block under a CAS lock, fencing before release"
    |> scenario ~explore:Clean S.file_service
    |> program "scenario" P.file_service
    |> traced B.file_service;
    entry "file_service_nofence"
      "file_service without the fence: WRITEs in flight as the lock moves on"
    |> scenario ~races:true S.file_service_nofence
    |> program ~rules:[ "static-unfenced-release" ] ~ordered:true "scenario"
         P.file_service_nofence;
    entry "name_service"
      "name lookups, a stale descriptor kept across a revoke, a poll-never read"
    |> scenario ~findings:true ~explore:Clean S.name_service
    |> program "scenario" P.name_service
    |> campaign (lossy 1017) (B.campaign B.name_service)
    |> program "campaign" P.campaign_name_service
    |> traced (B.launch B.name_service);
    entry "racy" "two unsynchronized writers to one range"
    |> scenario ~races:true S.racy
    |> program "scenario" P.racy;
    entry "torn_record"
      "a one-node two-word record a same-instant schedule tears"
    |> scenario ~explore:(Fails "invariant") S.torn_record
    |> program "scenario" P.torn_record;
    entry "cas_missing_release"
      "a CAS lock whose fast path forgets the release: schedules deadlock"
    |> scenario ~explore:(Fails "deadlock") S.cas_missing_release
    |> program ~rules:[ "static-lock-leak" ] "scenario" P.cas_missing_release;
    entry "cas_double_apply"
      "a lost-reply CAS retry that can apply its update twice"
    |> scenario ~explore:(Fails "linearizability") S.cas_double_apply
    |> program ~rules:[ "static-cas-reissue" ] ~confirmed:true "scenario"
         P.cas_double_apply;
    entry "frame_overrun"
      "a torn (offset, length) frame snapshot sends a READ out of bounds"
    |> scenario ~explore:(Fails "finding") S.frame_overrun
    |> program ~rules:[ "static-bounds" ] ~confirmed:true "scenario"
         P.frame_overrun;
    entry "dds_register_no_writeback"
      "an ABD register whose reads skip write-back: new-then-old reads"
    |> scenario ~explore:(Fails "linearizability") S.dds_register_no_writeback
    |> program "scenario" P.dds_register_no_writeback;
    entry "quickstart" "named export/import, WRITE, READ back, two CASes"
    |> campaign (lossy 1000) (B.campaign B.quickstart)
    |> program "campaign" P.campaign_quickstart
    |> traced ~decomposes:true (B.launch B.quickstart);
    entry "replica" "the replicated config store, healed across a partition"
    |> campaign
         (lossy 1051 @ [ leg "partition heal" (C.partition_plan ()) 2100 ])
         C.replica
    |> program "campaign" P.campaign_replica;
    entry "crash_restart" "a restart's stale generation, revalidated, recovered"
    |> campaign ~lin:false
         [ leg ~chain:true "crash/restart" (C.crash_plan ()) 2200 ]
         C.crash_restart
    |> program "campaign" P.campaign_crash_restart;
    entry "pipeline_write_stream" "64 pipelined 4 KB WRITEs, then a fence"
    |> program "bench" P.pipeline_write_stream;
    entry "pipeline_read_stream" "64 windowed 4 KB READs"
    |> program "bench" P.pipeline_read_stream;
    entry "pipeline_doorbell" "64 notifying 4 KB WRITEs, then a fence"
    |> program "bench" P.pipeline_doorbell;
    entry "sharded_lookup" "a clerk's pure-data probe chain via the shard map"
    |> program "shard" P.sharded_lookup;
    entry "shard_map_publish" "the reconciler's fenced split publication"
    |> program "shard" P.shard_map_publish;
    entry "shard_map_publish_unfenced"
      "the split publication, doorbell raised before the copies are fenced"
    |> program ~rules:[ "static-unfenced-publish" ] ~ordered:true "shard"
         P.shard_map_publish_unfenced;
    entry "dds_hashtable" "one client per structuring on a shared table key"
    |> history "dds" S.dds_hashtable
    |> program "dds" P.dds_hashtable;
    entry "dds_queue" "mixed-kind producers, one hybrid consumer draining all"
    |> history "dds" S.dds_queue
    |> program "dds" P.dds_queue;
    entry "dds_register" "one writer/reader per structuring on an ABD register"
    |> history "dds" S.dds_register
    |> program "dds" P.dds_register;
  ]

(* Stable grouping by [key], groups in order of first appearance. *)
let grouped key items =
  let keys =
    List.fold_left
      (fun ks x -> if List.mem (key x) ks then ks else ks @ [ key x ])
      [] items
  in
  List.concat_map (fun k -> List.filter (fun x -> key x = k) items) keys

let view f =
  List.filter_map (fun e -> Option.map (fun x -> (e.name, x)) (f e)) all

let race = view (fun e -> e.race)
let model = view (fun e -> e.model)
let campaigns = view (fun e -> e.campaign)
let trace = view (fun e -> e.trace)

let source = function
  | Fifo { source; _ } -> source
  | Fault_free _ -> "campaign"

let lin =
  grouped
    (fun (_, h) -> source h)
    (List.concat_map (fun e -> List.map (fun h -> (e.name, h)) e.lin) all)

let proto = grouped (fun p -> p.kind) (List.concat_map (fun e -> e.proto) all)

let chaos_matrix selected =
  List.concat_map
    (fun (name, c) -> List.map (fun leg -> (name, c.run, leg)) c.legs)
    selected
  |> List.stable_sort (fun (_, _, a) (_, _, b) -> compare a.seed b.seed)
  |> grouped (fun (_, _, leg) -> leg.label)

(* ------------------------------------------------------------------ *)
(* Checks: one view entry's check as a report.  An expectation is the
   band on the cell it constrains — the entry's own under [ci], a clean
   run's otherwise. *)

module T = Metrics.Table

let int ?band n = T.num ?band (float_of_int n)
let count ?band l = int ?band (List.length l)
let ok = T.Text "ok"

let race_report ~ci (name, (e : race)) =
  let monitor = S.run e.prepare in
  let races = Analysis.Race.find monitor in
  let findings = Analysis.Lint.check monitor in
  let band expected = [ (if ci && expected then T.Ge 1. else T.Le 0.) ] in
  let access (a : Analysis.Access.t) =
    Printf.sprintf "%s %s [%d..%d) at %s" a.agent_name
      (Analysis.Access.kind_to_string a.kind)
      a.off (a.off + a.count)
      (Sim.Time.to_string a.time)
  in
  let key = Analysis.Access.key_to_string in
  T.make ~title:("race " ^ name)
    ~notes:
      [
        T.fields
          [
            ("agents", int (Analysis.Monitor.agent_count monitor));
            ("accesses", count (Analysis.Monitor.accesses monitor));
            ("lrpc_calls", int (Analysis.Monitor.lrpc_calls monitor));
            ("races", count ~band:(band e.races) races);
            ("findings", count ~band:(band e.findings) findings);
          ];
      ]
    [ T.label "finding"; T.label "segment"; T.label "detail" ]
    (List.map
       (fun (r : Analysis.Race.t) ->
         List.map T.text
           [
             "race";
             Printf.sprintf "%s (%s)" r.seg_name (key r.key);
             access r.a ^ " vs " ^ access r.b;
           ])
       races
    @ List.map
        (fun (f : Analysis.Lint.finding) ->
          List.map T.text [ f.rule; key f.key; f.agent ^ ": " ^ f.detail ])
        findings)

let outcome_columns =
  [
    T.label "outcome";
    T.label "status";
    T.label "detail";
    T.label "schedule";
    T.number "choice_points" Plain;
  ]

let outcome_row ?band label (o : Analysis.Explore.outcome) =
  let kind, detail = Analysis.Explore.outcome_status o in
  [
    T.text label;
    T.cell ?band (Text kind);
    T.text detail;
    T.text (Analysis.Schedule.to_string o.schedule);
    int o.choice_points;
  ]

let replay_report name outcome =
  T.make ~title:("replay " ^ name) outcome_columns
    [ outcome_row ~band:[ T.Is ok ] "replay" outcome ]

(* A seeded bug's contract ({!Analysis.Explore.confirm}) as a cell that
   reads "ok", or why not; the certificate that replays, when one does. *)
let confirmation ?config ~kind prepare result =
  match Analysis.Explore.confirm ?config ~kind prepare result with
  | Ok first ->
      [
        ("confirm", T.is ok ok);
        ("certificate", T.text (Analysis.Schedule.to_string first.schedule));
      ]
  | Error msg -> [ ("confirm", T.is ok (Text msg)) ]

let model_report ?config ~ci (name, (e : model)) =
  let r = Analysis.Explore.explore ?config name e.prepare in
  let s = r.stats in
  let expect = if ci then e.expect else Clean in
  let of_kind kind =
    List.filter
      (fun o -> fst (Analysis.Explore.outcome_status o) = kind)
      r.failures
  in
  T.make ~title:("model " ^ name)
    ~notes:
      [
        T.fields
          ([
             ("executed", int s.executed);
             ("distinct", int s.distinct);
             ("redundant", int s.redundant);
             ("pruned_dpor", int s.pruned_dpor);
             ("pruned_sleep", int s.pruned_sleep);
             ("deferred", int s.deferred);
             ( "failing",
               int ~band:(if expect = Clean then [ T.Le 0. ] else []) s.failing
             );
             ("max_choice_points", int s.max_choice_points);
             ("budget_exhausted", T.cell (Flag s.budget_exhausted));
           ]
          @
          match expect with
          | Clean -> []
          | Fails kind ->
              (kind, count ~band:[ T.Ge 1. ] (of_kind kind))
              :: confirmation ?config ~kind e.prepare r);
      ]
    outcome_columns
    (outcome_row "baseline" r.baseline
    :: List.map (outcome_row "failure") r.failures)

(* Run one campaign workload fault-free with a monitor subscribed to
   every node of its testbed; the detail is why its history is suspect. *)
let campaign_monitor name workload =
  let monitor = ref None in
  let observe testbed =
    let m = Analysis.Monitor.create (Cluster.Testbed.engine testbed) in
    List.iter (Analysis.Monitor.attach m) (Cluster.Testbed.nodes testbed);
    monitor := Some m
  in
  let outcome = C.run ~observe ~seed:1 workload in
  match !monitor with
  | None -> failwith (name ^ ": campaign built no testbed")
  | Some m ->
      ( m,
        if outcome.survived && outcome.converged then ""
        else "campaign did not converge: " ^ outcome.detail )

let lin_report ~mode (name, history) =
  let module L = Analysis.Linearize in
  let monitor, detail =
    match history with
    | Fifo { prepare; _ } -> (S.run prepare, "")
    | Fault_free workload -> campaign_monitor name workload
  in
  let verdict = L.check ~mode (Analysis.Monitor.history monitor) in
  let stats, status, witness =
    match verdict with
    | Pass stats -> (stats, (if detail = "" then "ok" else "error"), [])
    | Fail { stats; witness; _ } -> (stats, "violation", witness)
  in
  T.make
    ~title:(Printf.sprintf "lin %s (%s)" name (source history))
    ~notes:
      [
        T.fields
          [
            ("source", T.text (source history));
            ("mode", T.text (L.mode_to_string mode));
            ("status", T.is ok (Text status));
            ( "detail",
              T.text
                (match verdict with
                | Fail _ when detail = "" -> L.describe verdict
                | _ -> detail) );
            ("cells", int stats.cells);
            ("events", int stats.events);
            ("explored", int stats.explored);
            ("skipped", int stats.skipped);
          ];
      ]
    [ T.label "witness" ]
    (List.map
       (fun e -> [ T.text (Analysis.History.event_to_string e) ])
       witness)

let proto_report ~ci (e : program) =
  let p = e.program in
  let findings = Analysis.Static.Verify.check p in
  let verdict = Analysis.Static.Pipesafe.classify p in
  let rules l = T.Text (String.concat ", " l) in
  let got =
    List.sort_uniq compare
      (List.map (fun (f : Analysis.Static.Finding.t) -> f.rule) findings)
  in
  let confirmed =
    match e.confirm with
    | Some (prepare, kind) when ci ->
        confirmation ~kind prepare (Analysis.Explore.explore p.name prepare)
    | _ -> []
  in
  let obligations =
    match verdict with Batchable -> [] | Ordered reasons -> reasons
  in
  T.make
    ~title:(Printf.sprintf "proto %s %s" e.kind p.name)
    ~notes:
      (T.fields
         ([
            ("kind", T.text e.kind);
            ( "instructions",
              int
                (List.fold_left
                   (fun acc (np : Workload.Program.node_program) ->
                     acc + Workload.Program.instr_count np.body)
                   0 p.nodes) );
            ( "rules",
              T.is
                (rules (if ci then List.sort compare e.rules else []))
                (rules got) );
            ( "pipelining",
              T.cell
                ~band:
                  (if ci then
                     [ T.Is (Text (if e.ordered then "ordered" else "batchable")) ]
                   else [])
                (Text (Analysis.Static.Pipesafe.verdict_to_string verdict)) );
          ]
         @ confirmed)
      :: List.map (fun r -> [ T.Lit ("ordering obligation: " ^ r) ]) obligations
      )
    [
      T.label "rule";
      T.number "node" Plain;
      T.label "node_name";
      T.label "segment";
      T.label "detail";
    ]
    (List.map
       (fun (f : Analysis.Static.Finding.t) ->
         [
           T.text f.rule;
           int f.node;
           T.text f.node_name;
           T.text f.seg;
           T.text f.detail;
         ])
       findings)

let chaos_report (leg : leg) workload =
  let first = C.run ~plan:leg.plan ~seed:leg.seed workload in
  let second = C.run ~plan:leg.plan ~seed:leg.seed workload in
  let holds b = T.is (Flag true) (Flag b) in
  T.make
    ~title:(Printf.sprintf "chaos %s, %s" first.workload leg.label)
    ~notes:
      (T.fields
         [
           ("leg", T.text leg.label);
           ("seed", int first.seed);
           ("survived", holds first.survived);
           ("converged", holds first.converged);
           ("replayed", holds (first.digest = second.digest));
           ( "chained",
             (if leg.chain then holds else fun b -> T.cell (Flag b))
               (first.revalidations >= 1. && first.recovered >= 1.) );
           ("detail", T.text first.detail);
           ("digest", T.text (string_of_int first.digest));
           ("events", int first.events);
           ("retries", T.num first.retries);
           ("recovered", T.num first.recovered);
           ("revalidations", T.num first.revalidations);
           ("gave_up", T.num first.gave_up);
         ]
      :: [ T.fields (List.map (fun (name, v) -> (name, T.num v)) first.counters) ])
    [] []
