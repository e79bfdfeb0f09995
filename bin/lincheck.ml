(* rnet lin — linearizability (and per-cell sequential-consistency)
   checking of the operation histories the monitor captures.

     rnet lin                                    # everything, FIFO
     rnet lin -w kv_store
     rnet lin --sc                               # SC-fallback mode
     rnet lin -w cas_double_apply --explore
     rnet lin -w cas_double_apply \
         --replay "0/4,0/3,0/2,0/3,0/2,0/2,0/2,1/2,0/2"
     rnet lin --ci --json

   Histories are the workload catalog's lin view: FIFO runs of the
   example workloads and data structures, and the fault-free recovery
   campaigns observed through the campaign's testbed observer. --ci asserts
   the catalog's expectations, as the --ci doc below states. *)

let escape = Analysis.Report.json_escape

type check = {
  workload : string;
  source : string;
  mode : Analysis.Linearize.mode;
  verdict : Analysis.Linearize.verdict;
  detail : string;  (* non-verdict trouble, e.g. campaign divergence *)
}

(* Run one campaign workload fault-free with a monitor subscribed to
   every node of its testbed. *)
let campaign_monitor name workload =
  let monitor = ref None in
  let observe testbed =
    let m = Analysis.Monitor.create (Cluster.Testbed.engine testbed) in
    List.iter (Analysis.Monitor.attach m) (Cluster.Testbed.nodes testbed);
    monitor := Some m
  in
  let outcome = Faults.Campaign.run ~observe ~seed:1 workload in
  match !monitor with
  | None -> failwith (name ^ ": campaign built no testbed")
  | Some m ->
      ( m,
        if outcome.Faults.Campaign.survived && outcome.Faults.Campaign.converged
        then ""
        else "campaign did not converge: " ^ outcome.Faults.Campaign.detail )

let check_history ~mode (name, history) =
  let monitor, detail =
    match history with
    | Catalog.Fifo { prepare; _ } -> (Analysis.Scenarios.run prepare, "")
    | Catalog.Fault_free workload -> campaign_monitor name workload
  in
  {
    workload = name;
    source = Catalog.source history;
    mode;
    verdict = Analysis.Linearize.check ~mode (Analysis.Monitor.history monitor);
    detail;
  }

let check_ok c =
  c.detail = ""
  && match c.verdict with Analysis.Linearize.Pass _ -> true | _ -> false

let verdict_stats = function
  | Analysis.Linearize.Pass stats -> stats
  | Analysis.Linearize.Fail { stats; _ } -> stats

let print_check c =
  let stats = verdict_stats c.verdict in
  Printf.printf "== %-22s (%s, %s): %s  [%d cell(s), %d event(s), %d state(s)%s]\n"
    c.workload c.source
    (Analysis.Linearize.mode_to_string c.mode)
    (if check_ok c then "ok"
     else if c.detail <> "" then c.detail
     else Analysis.Linearize.describe c.verdict)
    stats.Analysis.Linearize.cells stats.Analysis.Linearize.events
    stats.Analysis.Linearize.explored
    (if stats.Analysis.Linearize.skipped > 0 then
       Printf.sprintf ", %d skipped" stats.Analysis.Linearize.skipped
     else "")

let witness_json events =
  events
  |> List.map (fun e ->
         Printf.sprintf "\"%s\"" (escape (Analysis.History.event_to_string e)))
  |> String.concat ","

let check_json c =
  let stats = verdict_stats c.verdict in
  let status, witness =
    match c.verdict with
    | Analysis.Linearize.Pass _ ->
        ((if c.detail = "" then "ok" else "error"), "")
    | Analysis.Linearize.Fail { witness; _ } -> ("violation", witness_json witness)
  in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"lincheck\",\"workload\":\"%s\",\"source\":\"%s\",\"mode\":\"%s\",\"status\":\"%s\",\"detail\":\"%s\",\"witness\":[%s],\"stats\":{\"cells\":%d,\"events\":%d,\"explored\":%d,\"skipped\":%d}}"
    Analysis.Report.schema_version (escape c.workload) c.source
    (escape (Analysis.Linearize.mode_to_string c.mode))
    status
    (escape
       (if c.detail <> "" then c.detail
        else
          match c.verdict with
          | Analysis.Linearize.Pass _ -> ""
          | v -> Analysis.Linearize.describe v))
    witness stats.Analysis.Linearize.cells stats.Analysis.Linearize.events
    stats.Analysis.Linearize.explored stats.Analysis.Linearize.skipped

(* ---------------- exploration (the seeded bug) ---------------- *)

let explore_outcome_json (o : Analysis.Explore.outcome) =
  let kind, detail = Analysis.Explore.outcome_status o in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"lincheck\",\"schedule\":\"%s\",\"choice_points\":%d,\"status\":\"%s\",\"detail\":\"%s\"}"
    Analysis.Report.schema_version
    (escape (Analysis.Schedule.to_string o.schedule))
    o.choice_points (escape kind) (escape detail)

let print_explore_outcome ~label (o : Analysis.Explore.outcome) =
  let kind, detail = Analysis.Explore.outcome_status o in
  Printf.printf "   %s: %s%s  [schedule %s]\n" label kind
    (if detail = "" then "" else " — " ^ detail)
    (Analysis.Schedule.to_string o.schedule)

let kind = "linearizability"

(* The seeded bugs whose declared failure is a linearizability one. *)
let seeded =
  List.filter
    (fun (_, (e : Catalog.model)) -> e.expect = Catalog.Fails kind)
    Catalog.model

let run_explore ~json ~out (name, (e : Catalog.model)) =
  let r = Analysis.Explore.explore name e.prepare in
  let of_kind o = fst (Analysis.Explore.outcome_status o) = kind in
  let lin = List.filter of_kind r.failures in
  if json then
    List.iter
      (fun o -> Analysis.Report.emit ~tool:"lincheck" (explore_outcome_json o))
      lin
  else begin
    Printf.printf
      "== %s: %d schedule(s), %d distinct, %d non-linearizable\n" name
      r.stats.executed r.stats.distinct (List.length lin);
    List.iter (fun o -> print_explore_outcome ~label:"violation" o) lin
  end;
  match Analysis.Explore.confirm ~kind e.prepare r with
  | Ok _ -> true
  | Error msg ->
      Printf.fprintf out "   FAIL %s: %s\n" name msg;
      false

let run_replay (name, (e : Catalog.model)) cert ~json =
  let outcome = Cli.replay e.prepare cert in
  if json then Analysis.Report.emit ~tool:"lincheck" (explore_outcome_json outcome)
  else print_explore_outcome ~label:(Printf.sprintf "replay %s" name) outcome;
  outcome.failure = None

(* ---------------- driver ---------------- *)

let run_histories (m : Cli.mode) ~mode workload =
  let checks =
    List.map (check_history ~mode) (Cli.select ~name:fst Catalog.lin workload)
  in
  if m.json then
    List.iter
      (fun c -> Analysis.Report.emit ~tool:"lincheck" (check_json c))
      checks
  else List.iter print_check checks;
  let fifo_ok = List.for_all check_ok checks in
  if m.ci then
    (* Checking the full set also requires the seeded schedule bugs to
       be caught with replayable certificates. *)
    let explored_ok =
      workload <> "all"
      || Cli.run_all (run_explore ~json:m.json ~out:(Cli.diag m)) seeded
    in
    Cli.verdict m (fifo_ok && explored_ok)
      ~pass:"lincheck: all histories linearizable; seeded bugs caught"
      ~fail:"lincheck: expectation mismatch"
  else fifo_ok

let main workload sc explore replay (m : Cli.mode) =
  let mode =
    if sc then Analysis.Linearize.Sequential
    else Analysis.Linearize.Linearizable
  in
  match replay with
  | Some cert -> (
      match List.assoc_opt workload Catalog.model with
      | Some e -> run_replay (workload, e) cert ~json:m.json
      | None ->
          Cli.usage "--replay needs -w naming one of: %s"
            (String.concat ", " (List.map fst Catalog.model)))
  | None when explore ->
      let items =
        if workload = "all" then seeded
        else Cli.select ~name:fst Catalog.model workload
      in
      Cli.run_all (run_explore ~json:m.json ~out:(Cli.diag m)) items
  | None -> run_histories m ~mode workload

open Cmdliner

let sc =
  let doc =
    "Check per-cell sequential consistency (program order only) instead \
     of linearizability. Per-cell SC is a necessary condition for \
     whole-history SC, not sufficient — SC does not compose."
  in
  Arg.(value & flag & info [ "sc" ] ~doc)

let explore =
  let doc =
    "Explore the $(b,-w) workload's schedule space (by default, every \
     seeded linearizability bug's) and report the non-linearizable \
     schedules; exits 1 if none is found or the first certificate does \
     not replay, 2 if the workload is not explorable."
  in
  Arg.(value & flag & info [ "explore" ] ~doc)

let replay =
  let doc =
    "Replay one schedule certificate ($(b,index/count) pairs joined by \
     commas, or $(b,-) for FIFO) against the $(b,-w) workload and \
     report its outcome."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"CERT" ~doc)

let cmd =
  Cli.cmd "lin" ~doc:"Linearizability checker for captured operation histories"
    ~ci:
      "Assert expectations: every FIFO, fault-free campaign and dds \
       history is linearizable, and exploration catches every seeded \
       linearizability bug with a replayable certificate."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to check" (List.map fst Catalog.lin)
      $ sc $ explore $ replay)
