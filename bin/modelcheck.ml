(* rnet model — systematic same-instant schedule exploration of the
   example workloads, with DPOR + sleep sets + trace-equivalence
   hashing, and deterministic certificate replay.

     rnet model                                     # explore all
     rnet model -w torn_record
     rnet model -w cas_missing_release \
         --replay "0/3,0/2,0/3,1/2"                  # replay a cert
     rnet model --ci --budget 2000

   In --ci mode every explored workload must behave: the clean
   workloads exhaust their schedule space with zero failures, the
   seeded-bug workloads (clean under FIFO, so invisible to racecheck's
   single schedule) must produce at least one failing schedule, and
   replaying the first failure certificate must reproduce the same
   failure kind. *)

let failure_detail = function
  | None -> ("ok", "")
  | Some f ->
      (Analysis.Explore.failure_kind f, Analysis.Explore.describe_failure f)

let print_outcome ~label (o : Analysis.Explore.outcome) =
  let kind, detail = failure_detail o.failure in
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
  let kind, detail = failure_detail o.failure in
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

(* --ci: clean workloads must explore clean, seeded bugs must fail and
   their first certificate must replay to the same failure kind. *)
let assert_result ~config ~out (r : Analysis.Explore.result) =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.fprintf out "   FAIL %s: %s\n" r.workload msg;
        false)
      fmt
  in
  let seeded = List.mem r.workload Analysis.Scenarios.seeded_bugs in
  let baseline_ok =
    (* FIFO races/findings are the differential reference, so the
       baseline outcome can only fail on deadlock / exception /
       divergence / invariant — none of which a checked workload has
       under the default schedule *)
    match r.baseline.failure with
    | None -> true
    | Some f ->
        fail "baseline schedule failed: %s"
          (Analysis.Explore.describe_failure f)
  in
  let failures_ok =
    if seeded then
      if r.stats.failing = 0 then
        fail "seeded bug not found in %d schedule(s)" r.stats.executed
      else
        match r.failures with
        | [] -> fail "failing>0 but no failure outcome reported"
        | first :: _ -> (
            let replayed =
              Analysis.Explore.replay ~config r.workload first.schedule
            in
            match (first.failure, replayed.failure) with
            | Some want, Some got
              when Analysis.Explore.failure_kind want
                   = Analysis.Explore.failure_kind got ->
                true
            | _, got ->
                let _, want_d = failure_detail first.failure in
                let _, got_d = failure_detail got in
                fail "replay of %s diverged: expected %s, got %s"
                  (Analysis.Schedule.to_string first.schedule)
                  want_d
                  (if got_d = "" then "a clean run" else got_d))
    else if r.stats.failing > 0 then
      fail "expected a clean schedule space, got %d failing schedule(s)"
        r.stats.failing
    else true
  in
  baseline_ok && failures_ok

let run_explore (m : Cli.mode) ~config names =
  let results =
    List.map (fun name -> Analysis.Explore.explore ~config name) names
  in
  if m.json then
    List.iter
      (fun r -> Analysis.Report.emit ~tool:"modelcheck" (result_json r))
      results
  else List.iter print_result results;
  if m.ci then
    Cli.verdict m
      (Cli.run_all (assert_result ~config ~out:(Cli.diag m)) results)
      ~pass:"modelcheck: all workloads match expectations"
      ~fail:"modelcheck: expectation mismatch"
  else
    List.for_all
      (fun (r : Analysis.Explore.result) -> r.stats.failing = 0)
      results

let run_replay (m : Cli.mode) ~config name cert =
  let schedule =
    try Analysis.Schedule.of_string cert
    with Invalid_argument msg -> Cli.usage "%s" msg
  in
  let outcome = Analysis.Explore.replay ~config name schedule in
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
  let names = Cli.select ~name:Fun.id Analysis.Scenarios.checked workload in
  match (replay, names) with
  | Some cert, [ name ] -> run_replay m ~config name cert
  | Some _, _ -> Cli.usage "--replay needs a single --workload"
  | None, _ -> run_explore m ~config names

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
      "Assert expectations: clean workloads explore clean, seeded bugs \
       produce failing schedules, and the first failure certificate \
       replays to the same failure kind."
    Term.(
      const main
      $ Cli.workload
          ~doc:"Workload to explore (or $(b,all) for the checked set)." ()
      $ budget $ replay)
