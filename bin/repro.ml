(* rnet repro — regenerate every table and figure of the paper.

     rnet repro table2
     rnet repro all        # the lot, in the paper's order

   --json wraps each rendered report in a schema-versioned status
   object; --ci suppresses the report and asserts the experiment runs
   to completion. *)

let experiments =
  [
    ( "table1a",
      "Table 1a: summary of NFS RPC activity",
      fun () -> Experiments.Table1a.render (Experiments.Table1a.run ()) );
    ( "table1b",
      "Table 1b: control vs data traffic breakdown",
      fun () -> Experiments.Table1b.render (Experiments.Table1b.run ()) );
    ( "table2",
      "Table 2: remote memory operation performance",
      fun () -> Experiments.Table2.render (Experiments.Table2.run ()) );
    ( "table3",
      "Table 3: name server performance",
      fun () -> Experiments.Table3.render (Experiments.Table3.run ()) );
    ( "fig2",
      "Figure 2: client latency, HY vs DX",
      fun () -> Experiments.Fig2.render (Experiments.Fig2.run ()) );
    ( "fig3",
      "Figure 3: server CPU breakdown, HY vs DX",
      fun () -> Experiments.Fig3.render (Experiments.Fig3.run ()) );
    ( "headline",
      "The 50% server-load reduction headline",
      fun () -> Experiments.Headline.render (Experiments.Headline.run ()) );
    ( "scale",
      "Ablation A: scalability with client count",
      fun () -> Experiments.Scalability.render (Experiments.Scalability.run ())
    );
    ( "blocksize",
      "Ablation B: latency vs transfer size",
      fun () -> Experiments.Blocksize.render (Experiments.Blocksize.run ()) );
    ( "probes",
      "Ablation C: probing vs control transfer in name lookup",
      fun () ->
        Experiments.Probe_policy.render (Experiments.Probe_policy.run ()) );
    ( "coherence",
      "Ablation D: CAS vs RPC token coherence",
      fun () ->
        Experiments.Coherence_bench.render (Experiments.Coherence_bench.run ())
    );
    ( "security",
      "Ablation E: the cost of link encryption",
      fun () -> Experiments.Security.render (Experiments.Security.run ()) );
    ( "svm",
      "Ablation F: SVM vs remote memory (false sharing)",
      fun () -> Experiments.Svm_bench.render (Experiments.Svm_bench.run ()) );
    ( "amsg",
      "Ablation G: remote reads vs active messages vs RPC",
      fun () -> Experiments.Amsg_bench.render (Experiments.Amsg_bench.run ()) );
    ( "technology",
      "Ablation H: the trade-off across technology generations",
      fun () -> Experiments.Technology.render (Experiments.Technology.run ()) );
    ( "burst",
      "Ablation I: block-transfer burst size",
      fun () -> Experiments.Burst.render (Experiments.Burst.run ()) );
  ]

(* Run one experiment under the output mode; false on failure. *)
let run_one ~json ~ci (name, _, body) =
  let module J = Analysis.Report.Json in
  match body () with
  | rendered ->
      if json then
        Analysis.Report.emit ~tool:"repro"
          (J.to_string
             (J.obj
                [
                  ("schema", J.int Analysis.Report.schema_version);
                  ("tool", J.str "repro");
                  ("experiment", J.str name);
                  ("status", J.str "ok");
                  ("report", J.str (if ci then "" else rendered));
                ]))
      else if ci then Printf.printf "repro: %s ok\n" name
      else print_string rendered;
      true
  | exception exn ->
      if json then
        Analysis.Report.emit ~tool:"repro"
          (J.to_string
             (J.obj
                [
                  ("schema", J.int Analysis.Report.schema_version);
                  ("tool", J.str "repro");
                  ("experiment", J.str name);
                  ("status", J.str "error");
                  ("detail", J.str (Printexc.to_string exn));
                ]));
      Printf.eprintf "repro: %s failed: %s\n" name (Printexc.to_string exn);
      false

let main experiment (m : Cli.mode) =
  let chosen =
    Cli.select ~what:"experiment" ~name:(fun (name, _, _) -> name) experiments
      experiment
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
       Transfer in Distributed Operating Systems' (ASPLOS 1994)"
    ~ci:
      "Gate mode: suppress the rendered report, assert the experiment \
       completes, exit 1 otherwise."
    Cmdliner.Term.(
      const main
      $ Cli.choice ~docv:"EXPERIMENT" ~what:"experiment to run"
          (List.map (fun (name, doc, _) -> (name, doc)) experiments))
