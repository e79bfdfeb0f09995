(* rnet repro — regenerate every table and figure of the paper, its
   ablations and the campaigns that carry its crossover further.

     rnet repro table2
     rnet repro dds        # DX vs RPC vs hybrid per data structure
     rnet repro all        # the lot, in the paper's order

   Each experiment returns a report whose cells carry the paper's bands;
   a band that does not hold fails the run.  --json wraps each report
   (its text and its data) in a schema-versioned status object; --ci
   suppresses the report and prints one ok line per experiment. *)

let main experiment (m : Cli.mode) =
  let chosen =
    Cli.select ~what:"experiment" ~name:(fun (name, _, _) -> name)
      Experiments.Paper.all experiment
  in
  let banner = experiment = "all" && not (m.json || m.ci) in
  Cli.run_all
    (fun (name, _, run) ->
      if banner then Printf.printf "==== %s ====\n%!" name;
      let ok = Cli.report m ~tool:"repro" ~key:"experiment" name run in
      if banner then print_newline ();
      ok)
    chosen

let cmd =
  Cli.cmd "repro"
    ~doc:
      "Reproduce the tables and figures of 'Separating Data and Control \
       Transfer in Distributed Operating Systems' (ASPLOS 1994), its \
       ablations and the campaigns beyond it"
    ~ci:
      "Gate mode: suppress the rendered report, assert the experiment \
       completes with every paper band holding, exit 1 otherwise."
    Cmdliner.Term.(
      const main
      $ Cli.choice ~docv:"EXPERIMENT" ~what:"experiment to run"
          (List.map (fun (name, doc, _) -> (name, doc)) Experiments.Paper.all))
