(* rnet model — systematic same-instant schedule exploration of the
   example workloads, with DPOR + sleep sets + trace-equivalence
   hashing, and deterministic certificate replay.

     rnet model                                     # explore all
     rnet model -w torn_record
     rnet model -w cas_missing_release \
         --replay "0/3,0/2,0/3,1/2"                  # replay a cert
     rnet model --ci --budget 2000

   --ci asserts each workload's catalog expectation, as the --ci doc
   below states; the seeded bugs are clean under FIFO, so invisible to
   racecheck's single schedule. *)

let print_outcome ~label (o : Analysis.Explore.outcome) =
  let kind, detail = Analysis.Explore.outcome_status o in
  Printf.printf "   %s: %s%s  [schedule %s, %d choice point(s)]\n" label kind
    (if detail = "" then "" else " — " ^ detail)
    (Analysis.Schedule.to_string o.schedule)
    o.choice_points

let print_result (r : Analysis.Explore.result) =
  let s = r.stats in
  Printf.printf
    "== %s: %d schedule(s) executed, %d distinct, %d failing%s\n" r.workload
    s.executed s.distinct s.failing
    (if s.budget_exhausted then " (budget exhausted)" else "");
  Printf.printf
    "   reduction: %d hash-redundant, %d dpor-pruned, %d sleep-pruned, %d \
     deferred, max %d choice point(s)\n"
    s.redundant s.pruned_dpor s.pruned_sleep s.deferred s.max_choice_points;
  print_outcome ~label:"baseline (fifo)" r.baseline;
  List.iter (fun o -> print_outcome ~label:"failure" o) r.failures

let outcome_json (o : Analysis.Explore.outcome) =
  let kind, detail = Analysis.Explore.outcome_status o in
  Printf.sprintf
    "{\"schedule\":\"%s\",\"choice_points\":%d,\"status\":\"%s\",\"detail\":\"%s\"}"
    (Analysis.Report.json_escape (Analysis.Schedule.to_string o.schedule))
    o.choice_points
    (Analysis.Report.json_escape kind)
    (Analysis.Report.json_escape detail)

let result_json (r : Analysis.Explore.result) =
  let s = r.stats in
  Printf.sprintf
    "{\"schema\":%d,\"workload\":\"%s\",\"stats\":{\"executed\":%d,\"distinct\":%d,\"redundant\":%d,\"pruned_dpor\":%d,\"pruned_sleep\":%d,\"deferred\":%d,\"failing\":%d,\"max_choice_points\":%d,\"budget_exhausted\":%b},\"baseline\":%s,\"failures\":[%s]}"
    Analysis.Report.schema_version
    (Analysis.Report.json_escape r.workload)
    s.executed s.distinct s.redundant s.pruned_dpor s.pruned_sleep s.deferred
    s.failing s.max_choice_points s.budget_exhausted
    (outcome_json r.baseline)
    (String.concat "," (List.map outcome_json r.failures))

(* --ci: clean workloads must explore clean; a seeded bug must fail
   with its expected kind, and its first such certificate must replay
   to that kind. *)
let assert_result ~config ~out
    ((r : Analysis.Explore.result), (e : Catalog.model)) =
  let fail msg =
    Printf.fprintf out "   FAIL %s: %s\n" r.workload msg;
    false
  in
  match e.expect with
  | Catalog.Fails kind -> (
      match Analysis.Explore.confirm ~config ~kind e.prepare r with
      | Ok _ -> true
      | Error msg -> fail msg)
  | Catalog.Clean ->
      r.stats.failing = 0
      || fail
           (Printf.sprintf
              "expected a clean schedule space, got %d failing schedule(s)"
              r.stats.failing)

let run_explore (m : Cli.mode) ~config items =
  let results =
    List.map
      (fun (name, (e : Catalog.model)) ->
        (Analysis.Explore.explore ~config name e.prepare, e))
      items
  in
  if m.json then
    List.iter
      (fun (r, _) -> Analysis.Report.emit ~tool:"modelcheck" (result_json r))
      results
  else List.iter (fun (r, _) -> print_result r) results;
  if m.ci then
    Cli.verdict m
      (Cli.run_all (assert_result ~config ~out:(Cli.diag m)) results)
      ~pass:"modelcheck: all workloads match expectations"
      ~fail:"modelcheck: expectation mismatch"
  else
    List.for_all
      (fun ((r : Analysis.Explore.result), _) -> r.stats.failing = 0)
      results

let run_replay (m : Cli.mode) ~config (name, (e : Catalog.model)) cert =
  let outcome = Cli.replay ~config e.prepare cert in
  if m.json then
    Analysis.Report.emit ~tool:"modelcheck"
      (Printf.sprintf "{\"schema\":%d,\"workload\":\"%s\",\"replay\":%s}"
         Analysis.Report.schema_version
         (Analysis.Report.json_escape name)
         (outcome_json outcome))
  else print_outcome ~label:(Printf.sprintf "replay %s" name) outcome;
  outcome.failure = None

let main workload budget replay m =
  let config = { Analysis.Explore.default_config with budget } in
  let items = Cli.select ~name:fst Catalog.model workload in
  match (replay, items) with
  | Some cert, [ item ] -> run_replay m ~config item cert
  | Some _, _ -> Cli.usage "--replay needs a single --workload"
  | None, _ -> run_explore m ~config items

open Cmdliner

let budget =
  let doc = "Maximum number of schedules to execute per workload." in
  Arg.(
    value
    & opt int Analysis.Explore.default_config.budget
    & info [ "budget" ] ~docv:"N" ~doc)

let replay =
  let doc =
    "Replay one schedule certificate ($(b,index/count) pairs joined by \
     commas, or $(b,-) for the FIFO baseline) against a single \
     --workload and report its outcome."
  in
  Arg.(
    value & opt (some string) None & info [ "replay" ] ~docv:"CERT" ~doc)

let cmd =
  Cli.cmd "model" ~doc:"DPOR schedule explorer for the remote-memory workloads"
    ~ci:
      "Assert expectations: clean workloads explore clean, and each \
       seeded bug fails with its declared kind from a clean FIFO \
       baseline, its first certificate of that kind replaying to it."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to explore" (List.map fst Catalog.model)
      $ budget $ replay)
