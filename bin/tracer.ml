(* rnet trace — run the example workloads' bodies under the span tracer
   and emit Chrome trace-event JSON plus the cluster metrics report.

     rnet trace -w quickstart
     rnet trace --ci      # assert span-tree invariants
     rnet trace --ci --json

   With --ci or --json the trace files are not written; instead each
   run reports whether its span tree validates (no orphans, no open
   spans, monotone timestamps) and its body's verdict holds, and
   whether the quickstart WRITE decomposes into its trap/nic/wire/serve
   children summing to the end-to-end latency within 1%; a last report
   holds the span-derived Table 1 decomposition against direct
   engine-clock accounting, each row within 1%.  Any of these that
   fails exits 1. *)

module T = Metrics.Table

(* The acceptance check: a WRITE root whose phase children (trap, nic,
   wire, serve, ...) are contiguous and sum to its end-to-end latency. *)
let write_decomposes (run : Catalog.replay) =
  let writes =
    List.filter
      (fun (s : Obs.Span.t) -> s.Obs.Span.name = "WRITE")
      (Obs.Trace.roots run.spans)
  in
  let decomposes (root : Obs.Span.t) =
    let children = Obs.Trace.children run.spans root in
    let names =
      List.sort_uniq compare
        (List.map (fun (s : Obs.Span.t) -> s.Obs.Span.name) children)
    in
    let sum =
      List.fold_left (fun a s -> a +. Obs.Span.duration_us s) 0. children
    in
    let e2e = Obs.Span.duration_us root in
    List.length children >= 4
    && List.for_all (fun n -> List.mem n names) [ "trap"; "nic"; "wire"; "serve" ]
    && Float.abs (sum -. e2e) <= 0.01 *. e2e
  in
  List.exists decomposes writes

let report name (t : Catalog.trace) =
  let run = t.replay () in
  let problems =
    (match Obs.Trace.validate run.spans with Ok () -> [] | Error ps -> ps)
    @ match run.verdict with Ok () -> [] | Error detail -> [ "verdict: " ^ detail ]
  in
  let holds b = T.is (Flag true) (Flag b) in
  T.make ~title:("trace " ^ name)
    ~notes:
      (T.fields
         ([
            ("spans", T.num (float_of_int (Obs.Trace.span_count run.spans)));
            ( "roots",
              T.num (float_of_int (List.length (Obs.Trace.roots run.spans))) );
            ("valid", holds (problems = []));
          ]
         @
         if t.decomposes then
           [ ("write_decomposition", holds (write_decomposes run)) ]
         else [])
      :: List.map (fun p -> [ T.Lit ("problem: " ^ p) ]) problems)
    [] []

let emit name ~out ~tree (run : Catalog.replay) =
  let json = Obs.Export.chrome_json run.spans in
  let path = Filename.concat out (name ^ ".trace.json") in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "%s: %d spans -> %s\n" name
    (Obs.Trace.span_count run.spans)
    path;
  if tree then print_string (Obs.Export.render_tree run.spans);
  print_string (Obs.Registry.report run.registry)

let main workload out tree (m : Cli.mode) =
  if not (Sys.file_exists out && Sys.is_directory out) then
    Cli.usage "no such output directory: %s" out;
  let items = Cli.select ~name:fst Catalog.trace workload in
  if m.ci || m.json then
    let traced =
      Cli.check m ~tool:"tracer" ~key:"workload" ~name:fst
        (fun (name, t) -> report name t)
        items
    in
    let agree =
      Cli.report m ~tool:"tracer" ~key:"experiment" "decompose"
        Experiments.Table1a.decompose
    in
    traced && agree
  else begin
    List.iter
      (fun (name, (t : Catalog.trace)) -> emit name ~out ~tree (t.replay ()))
      items;
    true
  end

open Cmdliner

let out =
  let doc = "Directory for the emitted $(i,NAME).trace.json files." in
  Arg.(value & opt string "." & info [ "o"; "out" ] ~docv:"DIR" ~doc)

let tree =
  let doc = "Also print the plain-text span trees." in
  Arg.(value & flag & info [ "tree" ] ~doc)

let cmd =
  Cli.cmd "trace" ~doc:"span tracer for the remote-memory example workloads"
    ~ci:
      "Assert span-tree invariants and latency-accounting agreement \
       instead of writing trace files."
    Term.(
      const main
      $ Cli.workload ~doc:"Example workload to replay and trace"
          (List.map fst Catalog.trace)
      $ out $ tree)
