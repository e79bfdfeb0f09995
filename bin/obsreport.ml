(* rnet obs — run example workloads under the live telemetry sampler
   and evaluate declarative SLOs against what it saw.

     rnet obs                                   # all workloads
     rnet obs -w quickstart --loss 0.10 --seed 3
     rnet obs -w replica --chaos
     rnet obs --slo gates.spec --ci
     rnet obs --json

   Each workload runs under a time-series sampler (provably free of
   perturbation: the fault digest is bit-identical with sampling off),
   then the SLO spec — percentile latencies from the registry, counter
   totals and rates, gauge max/mean/last over the run or a trailing
   window — is evaluated against the series recorded every 50 us.
   Text mode prints per-gauge sparklines and one ok/FAIL line per
   clause; --json emits one schema-versioned object per workload.  With
   --ci any violation (or a workload dying) makes the exit status
   nonzero — the SLO file is the merge gate. *)

let escape = Analysis.Report.json_escape

(* The built-in gate when no --slo file is given: the run must reach
   quiescence fully drained and fully recovered. *)
let default_slo =
  String.concat "\n"
    [
      "# built-in: quiescent and fully recovered";
      "counter rmem.gave_up <= 0";
      "last rmem.0.inflight <= 0";
    ]

(* Every gauge is read at every tick, so any one ring's newest sample
   carries the run's last sampled instant. *)
let duration_of ts =
  match Obs.Timeseries.gauges ts with
  | [] -> Sim.Time.zero
  | gauge :: _ -> (
      match List.rev (Obs.Timeseries.samples ts gauge) with
      | (t_us, _) :: _ -> Sim.Time.of_us_float t_us
      | [] -> Sim.Time.zero)

let run_one ~plan ~seed ~spec workload =
  let outcome =
    Faults.Campaign.run ~plan ~sampler:(Sim.Time.of_us_float 50.0) ~seed
      workload
  in
  let ts = Option.get outcome.Faults.Campaign.timeseries in
  let ctx =
    {
      Obs.Slo.registry = Some outcome.Faults.Campaign.registry;
      series = Some ts;
      duration = duration_of ts;
    }
  in
  (outcome, ts, Obs.Slo.eval ctx spec)

let healthy (outcome, _, verdicts) =
  outcome.Faults.Campaign.survived
  && outcome.Faults.Campaign.converged
  && Obs.Slo.violations verdicts = []

(* ---------------- Text report ---------------- *)

let print_text (outcome, ts, verdicts) =
  Printf.printf "== %-17s seed %-4d %s%s  [%d fault(s), digest %x, %d tick(s)]\n"
    outcome.Faults.Campaign.workload outcome.Faults.Campaign.seed
    (if outcome.Faults.Campaign.survived && outcome.Faults.Campaign.converged
     then "ok"
     else if outcome.Faults.Campaign.survived then "DIVERGED"
     else "DIED")
    (if outcome.Faults.Campaign.detail = "" then ""
     else " — " ^ outcome.Faults.Campaign.detail)
    outcome.Faults.Campaign.events outcome.Faults.Campaign.digest
    (Obs.Timeseries.ticks ts);
  print_string (Obs.Timeseries.report ts);
  print_string (Obs.Slo.render verdicts);
  print_newline ()

(* ---------------- JSON report ---------------- *)

let verdict_json (v : Obs.Slo.verdict) =
  Printf.sprintf "{\"clause\":\"%s\",\"ok\":%b,\"value\":%s,\"detail\":\"%s\"}"
    (escape (Obs.Slo.clause_to_string v.Obs.Slo.clause))
    v.Obs.Slo.ok
    (match v.Obs.Slo.value with
    | Some f -> Printf.sprintf "%g" f
    | None -> "null")
    (escape v.Obs.Slo.detail)

let gauge_json ts name =
  match Obs.Timeseries.stat ts name with
  | None -> Printf.sprintf "\"%s\":null" (escape name)
  | Some st ->
      Printf.sprintf
        "\"%s\":{\"count\":%d,\"last\":%g,\"max\":%g,\"mean\":%g}"
        (escape name) st.Obs.Timeseries.count st.Obs.Timeseries.last
        st.Obs.Timeseries.max st.Obs.Timeseries.mean

let report_json (outcome, ts, verdicts) =
  let o = outcome in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"obsreport\",\"workload\":\"%s\",\"seed\":%d,\"survived\":%b,\"converged\":%b,\"detail\":\"%s\",\"digest\":%d,\"faults\":%d,\"ticks\":%d,\"interval_us\":%g,\"slo_passed\":%b,\"slo\":[%s],\"gauges\":{%s}}"
    Analysis.Report.schema_version
    (escape o.Faults.Campaign.workload)
    o.Faults.Campaign.seed o.Faults.Campaign.survived
    o.Faults.Campaign.converged
    (escape o.Faults.Campaign.detail)
    o.Faults.Campaign.digest o.Faults.Campaign.events
    (Obs.Timeseries.ticks ts)
    (Sim.Time.to_us (Obs.Timeseries.config ts).Obs.Timeseries.interval)
    (Obs.Slo.violations verdicts = [])
    (String.concat "," (List.map verdict_json verdicts))
    (String.concat "," (List.map (gauge_json ts) (Obs.Timeseries.gauges ts)))

let print_json report =
  Analysis.Report.emit ~tool:"obsreport" (report_json report)

(* ---------------- Driver ---------------- *)

let main workload seed loss chaos slo_file (m : Cli.mode) =
  let selected = Cli.select ~name:fst Catalog.campaigns workload in
  let plan =
    if chaos then Faults.Campaign.chaos_plan loss
    else Faults.Campaign.loss_plan loss
  in
  let spec_text =
    match slo_file with
    | None -> default_slo
    | Some path -> In_channel.with_open_text path In_channel.input_all
  in
  let spec =
    match Obs.Slo.parse spec_text with
    | Ok spec -> spec
    | Error e -> Cli.usage "obsreport: bad SLO spec:\n%s" e
  in
  let run (_, (c : Catalog.campaign)) = run_one ~plan ~seed ~spec c.run in
  let reports = List.map run selected in
  List.iter (if m.json then print_json else print_text) reports;
  let out = Cli.diag m in
  List.iter
    (fun ((outcome, _, verdicts) as report) ->
      if not (healthy report) then begin
        let o = outcome.Faults.Campaign.workload in
        if not outcome.Faults.Campaign.survived then
          Printf.fprintf out "   FAIL %s: did not survive — %s\n" o
            outcome.Faults.Campaign.detail
        else if not outcome.Faults.Campaign.converged then
          Printf.fprintf out "   FAIL %s: did not converge — %s\n" o
            outcome.Faults.Campaign.detail;
        List.iter
          (fun v ->
            Printf.fprintf out "   FAIL %s: SLO %s (%s)\n" o
              (Obs.Slo.clause_to_string v.Obs.Slo.clause)
              v.Obs.Slo.detail)
          (Obs.Slo.violations verdicts)
      end)
    reports;
  Cli.verdict m
    (List.for_all healthy reports)
    ~pass:
      (Printf.sprintf "obsreport: %d workload(s) within SLO"
         (List.length reports))
    ~fail:"obsreport: SLO violations"
  || not m.ci

open Cmdliner

let loss =
  let doc = "Per-frame loss probability on every link." in
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc)

let chaos =
  let doc =
    "Add corruption, duplication and delay-jitter on top of the loss rate."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let slo_file =
  let doc = "SLO spec file (default: the built-in quiescence gate)." in
  Arg.(value & opt (some string) None & info [ "slo" ] ~docv:"FILE" ~doc)

let cmd =
  Cli.cmd "obs" ~doc:"live-telemetry sampling report with declarative SLO gates"
    ~ci:"Exit nonzero on any SLO violation or workload failure."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to sample" (List.map fst Catalog.campaigns)
      $ Cli.seed 1 $ loss $ chaos $ slo_file)
