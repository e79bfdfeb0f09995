(* rnet race — replay the example workloads under the analysis monitor
   and report data races and protocol findings.

     rnet race -w kv_store
     rnet race --ci        # assert expectations
     rnet race --json      # machine-readable report

   In --ci mode every workload must report races and lint findings
   exactly where its catalog entry expects them. *)

let check (m : Cli.mode) (name, (expect : Catalog.race)) =
  let monitor = Analysis.Scenarios.run expect.prepare in
  let races = Analysis.Race.find monitor in
  let findings = Analysis.Lint.check monitor in
  if m.json then
    Analysis.Report.emit ~tool:"racecheck"
      (Analysis.Report.json ~title:name monitor ~races ~findings)
  else Analysis.Report.print ~title:name monitor ~races ~findings;
  if m.ci then begin
    let agrees what expected got =
      expected = (got > 0)
      || begin
           Printf.fprintf (Cli.diag m) "   FAIL %s: expected %s %s, got %d\n"
             name
             (if expected then "some" else "no")
             what got;
           false
         end
    in
    let races_ok = agrees "races" expect.races (List.length races) in
    let findings_ok =
      agrees "findings" expect.findings (List.length findings)
    in
    races_ok && findings_ok
  end
  else races = [] && findings = []

let main workload m =
  let items = Cli.select ~name:fst Catalog.race workload in
  Cli.verdict m
    (Cli.run_all (check m) items)
    ~pass:"racecheck: all workloads match expectations"
    ~fail:"racecheck: expectation mismatch"

let cmd =
  Cli.cmd "race"
    ~doc:"happens-before race detector for the remote-memory workloads"
    ~ci:
      "Assert per-workload expectations (clean workloads clean, seeded \
       races/findings present) instead of failing on any report."
    Cmdliner.Term.(const main $ Cli.workload (List.map fst Catalog.race))
