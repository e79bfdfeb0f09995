(* rnet chaos — seeded fault-injection campaigns over the example
   workloads, with a replay-determinism check.

     rnet chaos                                     # default sweep
     rnet chaos -w replica --loss 0.10 --seed 7
     rnet chaos -w replica --partition
     rnet chaos -w crash_restart --crash --json
     rnet chaos --ci --json

   Every campaign is deterministic in (workload, plan, seed): each
   configuration runs twice and the two fault-event digests must be
   identical. In --ci mode the canonical matrix must also survive and
   converge: loss at 0 / 1% / 10% across the data workloads, one
   partition schedule over the replica store, and one crash/restart
   schedule exercising Stale_generation recovery. *)

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
   (the replay contract), report the first outcome. *)
type verdict = {
  label : string;
  outcome : Faults.Campaign.outcome;
  replayed : bool;
}

let run_config ~label ~plan ~seed workload =
  let first = Faults.Campaign.run ~plan ~seed workload in
  let second = Faults.Campaign.run ~plan ~seed workload in
  { label; outcome = first; replayed = first.digest = second.digest }

let healthy v = v.outcome.survived && v.outcome.converged && v.replayed

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
          (if v.outcome.detail = "" then "" else " — " ^ v.outcome.detail))
    verdicts

(* The canonical matrix (also the @faults alias): every data workload
   under 0 / 1% / 10% loss, the replica store across a partition heal,
   and the crash/restart generation-bump recovery. *)
let ci_matrix () =
  let data_workloads =
    [ "quickstart"; "name_service"; "producer_consumer"; "replica" ]
  in
  let losses = [ 0.0; 0.01; 0.10 ] in
  let lossy =
    List.concat_map
      (fun loss ->
        List.mapi
          (fun i workload ->
            ( Printf.sprintf "loss %.0f%%" (loss *. 100.),
              Faults.Campaign.loss_plan loss,
              1000 + (17 * i) + int_of_float (loss *. 1000.),
              workload ))
          data_workloads)
      losses
  in
  lossy
  @ [
      ("partition heal", Faults.Campaign.partition_plan (), 2100, "replica");
      ("crash/restart", Faults.Campaign.crash_plan (), 2200, "crash_restart");
    ]

let run_ci (m : Cli.mode) =
  let out = Cli.diag m in
  let verdicts =
    List.map
      (fun (label, plan, seed, workload) ->
        run_config ~label ~plan ~seed workload)
      (ci_matrix ())
  in
  report ~json:m.json ~out verdicts;
  (* The crash/restart leg must demonstrate the full recovery chain:
     staleness seen, descriptor revalidated, operation recovered. *)
  let chain_ok =
    List.exists
      (fun v ->
        v.outcome.workload = "crash_restart"
        && v.outcome.revalidations >= 1.
        && v.outcome.recovered >= 1.)
      verdicts
  in
  if not chain_ok then
    Printf.fprintf out
      "   FAIL crash_restart: no Stale_generation -> revalidate -> recover \
       chain observed\n";
  Cli.verdict m
    (List.for_all healthy verdicts && chain_ok)
    ~pass:
      (Printf.sprintf
         "chaoscheck: %d configuration(s) survived, converged and replayed"
         (List.length verdicts))
    ~fail:"chaoscheck: campaign expectations not met"

let main workload seed loss chaos partition crash (m : Cli.mode) =
  let names = Cli.select ~name:Fun.id Faults.Campaign.workloads workload in
  if m.ci then run_ci m
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
    let verdicts =
      List.map (run_config ~label:"adhoc" ~plan ~seed) names
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
      "Run the canonical matrix and fail on any non-convergence or replay \
       divergence."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to torment (or $(b,all))." ()
      $ Cli.seed 1 $ loss $ chaos $ partition $ crash)
