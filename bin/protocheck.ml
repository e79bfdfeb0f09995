(* rnet proto — static protocol verification of the declared
   meta-instruction programs (Analysis.Static): rights and bounds in an
   interval domain against the export manifest, fence-order hazards,
   retry-combinator discipline, and a pipelining-safety verdict per
   program.

     rnet proto                              # whole catalog
     rnet proto -w frame_overrun
     rnet proto --json
     rnet proto --ci

   --ci asserts each program's workload-catalog expectations, as the
   --ci doc below states. *)

let analyze (e : Catalog.program) =
  ( Analysis.Static.Verify.check e.program,
    Analysis.Static.Pipesafe.classify e.program )

let print_entry (e : Catalog.program) (findings, verdict) =
  Printf.printf "== %s %s: %s, %s\n" e.kind e.program.Workload.Program.name
    (match findings with
    | [] -> "statically clean"
    | fs -> Printf.sprintf "%d finding(s)" (List.length fs))
    (Analysis.Static.Pipesafe.verdict_to_string verdict);
  List.iter
    (fun f -> Printf.printf "   %s\n" (Analysis.Static.Finding.describe f))
    findings;
  match verdict with
  | Analysis.Static.Pipesafe.Batchable -> ()
  | Analysis.Static.Pipesafe.Ordered reasons ->
      List.iter (Printf.printf "   ordering obligation: %s\n") reasons

let entry_json (e : Catalog.program) (findings, verdict) =
  let module J = Analysis.Report.Json in
  let finding_json (f : Analysis.Static.Finding.t) =
    J.obj
      [
        ("rule", J.str f.rule);
        ("node", J.int f.node);
        ("node_name", J.str f.node_name);
        ("segment", J.str f.seg);
        ("detail", J.str f.detail);
      ]
  in
  let obligations =
    match verdict with
    | Analysis.Static.Pipesafe.Batchable -> []
    | Analysis.Static.Pipesafe.Ordered reasons -> reasons
  in
  J.to_string
    (J.obj
       [
         ("schema", J.int Analysis.Report.schema_version);
         ("tool", J.str "protocheck");
         ("kind", J.str e.kind);
         ("program", J.str e.program.Workload.Program.name);
         ( "instructions",
           J.int
             (List.fold_left
                (fun acc (np : Workload.Program.node_program) ->
                  acc + Workload.Program.instr_count np.body)
                0 e.program.Workload.Program.nodes) );
         ("findings", J.list (List.map finding_json findings));
         ( "pipelining",
           J.str (Analysis.Static.Pipesafe.verdict_to_string verdict) );
         ("obligations", J.list (List.map (fun r -> J.str r) obligations));
       ])

(* --ci leg 1: the static expectations, program by program. *)
let assert_static ~out (e : Catalog.program) (findings, verdict) =
  let name = e.program.Workload.Program.name in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.fprintf out "   FAIL %s %s: %s\n" e.kind name msg;
        false)
      fmt
  in
  let got = List.map (fun (f : Analysis.Static.Finding.t) -> f.rule) findings in
  let want = e.rules in
  let rules_ok =
    if List.sort_uniq compare got = List.sort compare want then true
    else
      fail "expected rules [%s], got [%s]"
        (String.concat ", " want)
        (String.concat ", " got)
  in
  let verdict_ok =
    match (verdict, e.ordered) with
    | Analysis.Static.Pipesafe.Batchable, false
    | Analysis.Static.Pipesafe.Ordered _, true ->
        true
    | Analysis.Static.Pipesafe.Batchable, true ->
        fail "expected an ordered verdict, got batchable"
    | Analysis.Static.Pipesafe.Ordered reasons, false ->
        fail "expected batchable, got ordered (%s)"
          (String.concat "; " reasons)
  in
  rules_ok && verdict_ok

(* --ci leg 2: the headline static findings that FIFO runs pass, each
   confirmed by exploring the matching dynamic scenario — clean FIFO
   baseline, a failing schedule of the declared kind, and a certificate
   that replays to that kind. *)
let assert_dynamic ~out name (prepare, kind) =
  match
    Analysis.Explore.confirm ~kind prepare
      (Analysis.Explore.explore name prepare)
  with
  | Ok first ->
      Printf.fprintf out "   cross-validated %s: schedule %s replays to %s\n"
        name
        (Analysis.Schedule.to_string first.schedule)
        kind;
      true
  | Error msg ->
      Printf.fprintf out "   FAIL cross-validation %s: %s\n" name msg;
      false

let main workload (m : Cli.mode) =
  let entries =
    Cli.select ~what:"program"
      ~name:(fun (e : Catalog.program) -> e.program.name)
      Catalog.proto workload
  in
  let analyzed = List.map (fun e -> (e, analyze e)) entries in
  if m.json then
    List.iter
      (fun (e, a) -> Analysis.Report.emit ~tool:"protocheck" (entry_json e a))
      analyzed
  else List.iter (fun (e, a) -> print_entry e a) analyzed;
  if m.ci then begin
    let out = Cli.diag m in
    let static_ok =
      Cli.run_all (fun (e, a) -> assert_static ~out e a) analyzed
    in
    (* Only for the seeded programs in scope, so -w runs stay cheap; the
       @protocheck alias runs the whole catalog. *)
    let dynamic_ok =
      Cli.run_all
        (fun (e : Catalog.program) ->
          match e.confirm with
          | Some c -> assert_dynamic ~out e.program.name c
          | None -> true)
        entries
    in
    Cli.verdict m (static_ok && dynamic_ok)
      ~pass:"protocheck: all programs match expectations"
      ~fail:"protocheck: expectation mismatch"
  end
  else List.for_all (fun (_, (findings, _)) -> findings = []) analyzed

let cmd =
  Cli.cmd "proto" ~doc:"Static protocol verifier for declared access programs"
    ~ci:
      "Assert the catalog's expectations: seeded programs trip exactly \
       their rules, everything else is clean and its pipelining verdict \
       matches, and the headline static findings are cross-confirmed by \
       exploration certificates."
    Cmdliner.Term.(
      const main
      $ Cli.workload ~doc:"Program to verify"
          (List.map
             (fun (e : Catalog.program) -> e.program.name)
             Catalog.proto))
