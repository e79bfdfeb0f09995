(* rnet repro — regenerate every table and figure of the paper, its
   ablations and the campaigns that carry its crossover further.

     rnet repro table2
     rnet repro dds        # DX vs RPC vs hybrid per data structure
     rnet repro all        # the lot, in the paper's order

   Each experiment returns a report whose cells carry the paper's bands;
   a band that does not hold fails the run.  --json wraps each report
   (its text and its data) in a schema-versioned status object; --ci
   suppresses the report and prints one ok line per experiment. *)

(* Run one experiment under the output mode; false on failure. *)
let run_one ~json ~ci (name, _, run) =
  let module J = Analysis.Report.Json in
  let envelope status fields =
    if json then
      Analysis.Report.emit ~tool:"repro"
        (J.to_string
           (J.obj
              ([
                 ("schema", J.int Analysis.Report.schema_version);
                 ("tool", J.str "repro");
                 ("experiment", J.str name);
                 ("status", J.str status);
               ]
              @ fields)))
  in
  match run () with
  | report ->
      let text = Metrics.Table.render report in
      let violations = Metrics.Table.violations report in
      envelope
        (if violations = [] then "ok" else "violated")
        [
          ("report", J.str (if ci then "" else text));
          ("data", J.raw (Metrics.Json.write (Metrics.Table.to_json report)));
        ];
      if (not json) && ci && violations = [] then
        Printf.printf "repro: %s ok\n" name
      else if not (json || ci) then print_string text;
      List.iter (Printf.eprintf "repro: %s: band violated: %s\n" name) violations;
      violations = []
  | exception exn ->
      envelope "error" [ ("detail", J.str (Printexc.to_string exn)) ];
      Printf.eprintf "repro: %s failed: %s\n" name (Printexc.to_string exn);
      false

let main experiment (m : Cli.mode) =
  let chosen =
    Cli.select ~what:"experiment" ~name:(fun (name, _, _) -> name)
      Experiments.Paper.all experiment
  in
  let banner = experiment = "all" && not (m.json || m.ci) in
  Cli.run_all
    (fun ((name, _, _) as e) ->
      if banner then Printf.printf "==== %s ====\n%!" name;
      let ok = run_one ~json:m.json ~ci:m.ci e in
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
