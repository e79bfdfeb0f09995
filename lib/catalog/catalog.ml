(* The workload catalog.  Entries are assembled from [entry] by facets,
   one per builder, each filling the checker expectations that builder
   serves.  Record order is output order; a view that mixes builder
   kinds groups them in order of first appearance. *)

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
type trace = { replay : unit -> Experiments.Traced.run; decomposes : bool }

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

let traced ?(decomposes = false) replay e =
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
module T = Experiments.Traced

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
    |> traced T.producer_consumer;
    entry "file_service"
      "two clients update one block under a CAS lock, fencing before release"
    |> scenario ~explore:Clean S.file_service
    |> program "scenario" P.file_service
    |> traced T.file_service;
    entry "file_service_nofence"
      "file_service without the fence: WRITEs in flight as the lock moves on"
    |> scenario ~races:true S.file_service_nofence
    |> program ~rules:[ "static-unfenced-release" ] ~ordered:true "scenario"
         P.file_service_nofence;
    entry "name_service"
      "name lookups, a stale descriptor kept across a revoke, a poll-never read"
    |> scenario ~findings:true ~explore:Clean S.name_service
    |> program "scenario" P.name_service
    |> campaign (lossy 1017) C.name_service
    |> program "campaign" P.campaign_name_service
    |> traced T.name_service;
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
    |> campaign (lossy 1000) C.quickstart
    |> program "campaign" P.campaign_quickstart
    |> traced ~decomposes:true T.quickstart;
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
