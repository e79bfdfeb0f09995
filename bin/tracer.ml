(* rnet trace — replay the example workloads under the span tracer and
   emit Chrome trace-event JSON plus the cluster metrics report.

     rnet trace -w quickstart
     rnet trace --ci      # assert span-tree invariants
     rnet trace --ci --json

   In --ci mode every replay's span tree must validate (no orphans, no
   open spans, monotone timestamps), the quickstart WRITE must decompose
   into its trap/nic/wire/serve children summing to the end-to-end
   latency within 1%, and the span-derived Table 1 decomposition must
   agree with direct engine-clock accounting within 1%.

   --json replaces the text output with one schema-versioned JSON object
   per workload on stdout (diagnostics on stderr) and, like --ci, makes
   any finding fatal: a tree that fails to validate exits 1 whether or
   not --ci was given. *)

let escape = Analysis.Report.json_escape

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("   FAIL " ^ s); false) fmt

(* The acceptance check: a WRITE root whose phase children (trap, nic,
   wire, serve, ...) are contiguous and sum to its end-to-end latency. *)
let write_decomposes (run : Experiments.Traced.run) =
  let writes =
    List.filter
      (fun (s : Obs.Span.t) -> s.Obs.Span.name = "WRITE")
      (Obs.Trace.roots run.trace)
  in
  let decomposes (root : Obs.Span.t) =
    let children = Obs.Trace.children run.trace root in
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

(* Every problem a replay's trace can exhibit, as data — the text and
   JSON reporters render the same list. *)
let problems_of (t : Catalog.trace) (run : Experiments.Traced.run) =
  let validation =
    match Obs.Trace.validate run.trace with Ok () -> [] | Error ps -> ps
  in
  let decomposition =
    if t.decomposes && not (write_decomposes run) then
      [ "no WRITE root decomposes into >= 4 contiguous phases" ]
    else []
  in
  validation @ decomposition

let check_decompose_agreement ~quiet =
  let d = Experiments.Table1a.decompose () in
  if not quiet then print_string (Experiments.Table1a.render_decomposition d);
  List.for_all
    (fun (r : Experiments.Table1a.phase_row) ->
      Float.abs (r.Experiments.Table1a.span_us -. r.Experiments.Table1a.direct_us)
      <= 0.01 *. r.Experiments.Table1a.direct_us
      || fail "decompose %s: spans %.2f us vs direct %.2f us"
           r.Experiments.Table1a.op r.Experiments.Table1a.span_us
           r.Experiments.Table1a.direct_us)
    d.Experiments.Table1a.phase_rows

let emit name ~out ~tree (run : Experiments.Traced.run) =
  let json = Obs.Export.chrome_json run.trace in
  let path = Filename.concat out (name ^ ".trace.json") in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "%s: %d spans -> %s\n" name
    (Obs.Trace.span_count run.trace)
    path;
  if tree then print_string (Obs.Export.render_tree run.trace);
  print_string (Obs.Registry.report run.registry)

(* ---------------- JSON report ---------------- *)

let run_json name (t : Catalog.trace) (run : Experiments.Traced.run) problems =
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"tracer\",\"workload\":\"%s\",\"spans\":%d,\"roots\":%d,\"valid\":%b,\"write_decomposition\":%s,\"problems\":[%s]}"
    Analysis.Report.schema_version (escape name)
    (Obs.Trace.span_count run.trace)
    (List.length (Obs.Trace.roots run.trace))
    (problems = [])
    (if t.decomposes then string_of_bool (write_decomposes run) else "null")
    (String.concat ","
       (List.map (fun p -> Printf.sprintf "\"%s\"" (escape p)) problems))

let decompose_json ok =
  let d = Experiments.Table1a.decompose () in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"tracer\",\"check\":\"decompose_agreement\",\"ok\":%b,\"phases\":[%s]}"
    Analysis.Report.schema_version ok
    (String.concat ","
       (List.map
          (fun (r : Experiments.Table1a.phase_row) ->
            Printf.sprintf "{\"op\":\"%s\",\"span_us\":%g,\"direct_us\":%g}"
              (escape r.Experiments.Table1a.op) r.Experiments.Table1a.span_us
              r.Experiments.Table1a.direct_us)
          d.Experiments.Table1a.phase_rows))

let print_json line = Analysis.Report.emit ~tool:"tracer" line

(* ---------------- Driver ---------------- *)

let run_one (m : Cli.mode) ~out ~tree (name, (t : Catalog.trace)) =
  let run = t.replay () in
  if m.json || m.ci then begin
    let problems = problems_of t run in
    if m.json then print_json (run_json name t run problems)
    else
      Printf.printf "%s: %d spans, %s\n" name
        (Obs.Trace.span_count run.trace)
        (if problems = [] then "valid" else "INVALID");
    Cli.run_all (fun p -> fail "%s: %s" name p) problems
  end
  else begin
    emit name ~out ~tree run;
    true
  end

let main workload out tree (m : Cli.mode) =
  if not (Sys.file_exists out && Sys.is_directory out) then
    Cli.usage "no such output directory: %s" out;
  let items = Cli.select ~name:fst Catalog.trace workload in
  let ok = Cli.run_all (run_one m ~out ~tree) items in
  if m.ci || m.json then begin
    let agree = check_decompose_agreement ~quiet:m.json in
    if m.json then print_json (decompose_json agree);
    Cli.verdict m (ok && agree) ~pass:"tracer: all span trees valid"
      ~fail:"tracer: check failed"
  end
  else ok

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
