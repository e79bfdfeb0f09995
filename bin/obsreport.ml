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
   window — is evaluated against the series recorded every 50 us.  The
   report is one row per clause, banded by it, then the run (which must
   survive and converge) and every gauge with its sparkline.  Only
   with --ci does a violation (or a workload dying) make the exit
   status nonzero — the SLO file is the merge gate. *)

module T = Metrics.Table

(* The built-in gate when no --slo file is given: the run must reach
   quiescence fully drained and fully recovered. *)
let default_slo =
  String.concat "\n"
    [
      "# built-in: quiescent and fully recovered";
      "counter rmem.gave_up <= 0";
      "last rmem.0.inflight <= 0";
    ]

let gauge ts name =
  match Obs.Timeseries.stat ts name with
  | None -> T.fields [ ("gauge", T.text name); ("count", T.num 0.) ]
  | Some st ->
      T.fields
        [
          ("gauge", T.text name);
          ("count", T.num (float_of_int st.count));
          ("last", T.num st.last);
          ("max", T.num st.max);
          ("mean", T.num st.mean);
        ]
      @ [ T.Lit ("  " ^ Obs.Timeseries.sparkline ts name) ]

let report ~plan ~seed ~spec workload =
  let o =
    Faults.Campaign.run ~plan ~sampler:(Sim.Time.of_us_float 50.0) ~seed
      workload
  in
  let ts = Option.get o.timeseries in
  let slo = Obs.Slo.eval { registry = Some o.registry; series = Some ts } spec in
  let holds b = T.is (Flag true) (Flag b) in
  {
    slo with
    title = Some ("obs " ^ o.workload);
    notes =
      T.fields
        [
          ("seed", T.num (float_of_int o.seed));
          ("survived", holds o.survived);
          ("converged", holds o.converged);
          ("detail", T.text o.detail);
          ("digest", T.text (string_of_int o.digest));
          ("faults", T.num (float_of_int o.events));
          ("ticks", T.num (float_of_int (Obs.Timeseries.ticks ts)));
          ( "interval_us",
            T.num (Sim.Time.to_us (Obs.Timeseries.config ts).interval) );
        ]
      :: List.map (gauge ts) (Obs.Timeseries.gauges ts);
  }

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
  Cli.check ~gated:m.ci m ~tool:"obsreport" ~key:"workload" ~name:fst
    (fun (_, (c : Catalog.campaign)) -> report ~plan ~seed ~spec c.run)
    selected

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
