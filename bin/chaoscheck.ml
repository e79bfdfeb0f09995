(* rnet chaos — seeded fault-injection campaigns over the example
   workloads, with a replay-determinism check.

     rnet chaos                                     # default sweep
     rnet chaos -w replica --loss 0.10 --seed 7
     rnet chaos -w replica --partition
     rnet chaos -w crash_restart --crash --json
     rnet chaos --ci --json

   Every campaign is deterministic in (workload, plan, seed): each
   configuration runs twice and the two fault-event digests must be
   identical. --ci runs the selected workloads' legs of the canonical
   matrix (their catalog legs, each with a pinned seed). *)

let escape = Analysis.Report.json_escape

let outcome_json (o : Faults.Campaign.outcome) =
  let counters =
    o.counters
    |> List.map (fun (name, v) -> Printf.sprintf "\"%s\":%g" (escape name) v)
    |> String.concat ","
  in
  Printf.sprintf
    "{\"schema\":%d,\"workload\":\"%s\",\"seed\":%d,\"survived\":%b,\"converged\":%b,\"detail\":\"%s\",\"digest\":%d,\"events\":%d,\"retries\":%g,\"recovered\":%g,\"revalidations\":%g,\"gave_up\":%g,\"counters\":{%s}}"
    Analysis.Report.schema_version
    (escape o.workload) o.seed o.survived o.converged (escape o.detail)
    o.digest o.events o.retries o.recovered o.revalidations o.gave_up counters

let print_outcome ~label (o : Faults.Campaign.outcome) =
  Printf.printf
    "== %-17s %-22s seed %-4d %s%s  [%d fault(s), digest %x, retries %.0f, \
     recovered %.0f, revalidations %.0f, gave up %.0f]\n"
    o.workload label o.seed
    (if o.survived && o.converged then "ok"
     else if o.survived then "DIVERGED"
     else "DIED")
    (if o.detail = "" then "" else " — " ^ o.detail)
    o.events o.digest o.retries o.recovered o.revalidations o.gave_up

(* One configuration of the sweep: run twice, check the digests agree
   (the replay contract) and, for a chain leg, that the full recovery
   chain ran — staleness seen, descriptor revalidated, operation
   recovered; report the first outcome. *)
type verdict = {
  label : string;
  outcome : Faults.Campaign.outcome;
  replayed : bool;
  chained : bool;
}

let run_config (leg : Catalog.leg) workload =
  let first = Faults.Campaign.run ~plan:leg.plan ~seed:leg.seed workload in
  let second = Faults.Campaign.run ~plan:leg.plan ~seed:leg.seed workload in
  {
    label = leg.label;
    outcome = first;
    replayed = first.digest = second.digest;
    chained =
      (not leg.chain) || (first.revalidations >= 1. && first.recovered >= 1.);
  }

let healthy v =
  v.outcome.survived && v.outcome.converged && v.replayed && v.chained

let report ~json ~out verdicts =
  if json then
    List.iter
      (fun v -> Analysis.Report.emit ~tool:"chaoscheck" (outcome_json v.outcome))
      verdicts
  else List.iter (fun v -> print_outcome ~label:v.label v.outcome) verdicts;
  List.iter
    (fun v ->
      if not v.replayed then
        Printf.fprintf out "   FAIL %s (%s): seed %d did not replay to the same fault sequence\n"
          v.outcome.workload v.label v.outcome.seed;
      if not (v.outcome.survived && v.outcome.converged) then
        Printf.fprintf out "   FAIL %s (%s): seed %d %s%s\n" v.outcome.workload
          v.label v.outcome.seed
          (if v.outcome.survived then "did not converge" else "did not survive")
          (if v.outcome.detail = "" then "" else " — " ^ v.outcome.detail);
      if not v.chained then
        Printf.fprintf out
          "   FAIL %s: no Stale_generation -> revalidate -> recover chain \
           observed\n"
          v.outcome.workload)
    verdicts

(* --ci: the selected workloads' rows of the canonical matrix (all of
   it is the @faults alias): each data workload under 0 / 1% / 10% loss,
   the replica store across a partition heal, and the crash/restart
   generation-bump recovery. *)
let run_ci (m : Cli.mode) selected =
  let verdicts =
    List.map
      (fun (_, run, leg) -> run_config leg run)
      (Catalog.chaos_matrix selected)
  in
  report ~json:m.json ~out:(Cli.diag m) verdicts;
  Cli.verdict m
    (List.for_all healthy verdicts)
    ~pass:
      (Printf.sprintf
         "chaoscheck: %d configuration(s) survived, converged and replayed"
         (List.length verdicts))
    ~fail:"chaoscheck: campaign expectations not met"

let main workload seed loss chaos partition crash (m : Cli.mode) =
  let selected = Cli.select ~name:fst Catalog.campaigns workload in
  if m.ci then run_ci m selected
  else begin
    let plan =
      let link =
        if chaos then (Faults.Campaign.chaos_plan loss).Faults.Plan.link
        else (Faults.Campaign.loss_plan loss).Faults.Plan.link
      in
      let partitions =
        if partition then
          (Faults.Campaign.partition_plan ()).Faults.Plan.partitions
        else []
      in
      let crashes =
        if crash then (Faults.Campaign.crash_plan ()).Faults.Plan.crashes
        else []
      in
      { Faults.Plan.link; partitions; crashes }
    in
    let leg = { Catalog.label = "adhoc"; plan; seed; chain = false } in
    let verdicts =
      List.map (fun (_, (c : Catalog.campaign)) -> run_config leg c.run) selected
    in
    report ~json:m.json ~out:(Cli.diag m) verdicts;
    List.for_all healthy verdicts
  end

open Cmdliner

let loss =
  let doc = "Per-frame loss probability on every link." in
  Arg.(value & opt float 0.10 & info [ "loss" ] ~docv:"P" ~doc)

let chaos =
  let doc =
    "Add corruption, duplication and delay-jitter on top of the loss rate."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let partition =
  let doc = "Add the canonical partition schedule (node 2 cut 10-30 ms)." in
  Arg.(value & flag & info [ "partition" ] ~doc)

let crash =
  let doc = "Add the canonical crash/restart schedule (node 1, 5/8 ms)." in
  Arg.(value & flag & info [ "crash" ] ~doc)

let cmd =
  Cli.cmd "chaos"
    ~doc:"seeded fault-injection campaigns with deterministic replay"
    ~ci:
      "Run the selected workloads' rows of the canonical matrix and fail \
       on any non-convergence or replay divergence."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to torment" (List.map fst Catalog.campaigns)
      $ Cli.seed 1 $ loss $ chaos $ partition $ crash)
