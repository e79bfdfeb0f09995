(* rnet proto — static protocol verification of the declared
   meta-instruction programs (Analysis.Static): rights and bounds in an
   interval domain against the export manifest, fence-order hazards,
   retry-combinator discipline, and a pipelining-safety verdict per
   program.

     rnet proto                              # whole catalog
     rnet proto -w frame_overrun
     rnet proto --json
     rnet proto --ci

   In --ci mode the catalog must match expectations exactly: each
   seeded-bug program yields precisely its expected rule(s), every
   other scenario, campaign, bench and shard program is statically clean
   (zero false positives), the pipelining verdicts match, and the two
   headline static findings that FIFO runs pass — the frame_overrun
   interval overrun and the cas_double_apply reply-trusting reissue —
   are each cross-confirmed dynamically by exploring the matching
   scenario: a failing schedule of the right kind whose certificate
   replays deterministically, from a clean FIFO baseline. *)

type entry = { kind : string; program : Workload.Program.t }

let catalog () =
  List.concat
    [
      List.filter_map
        (fun name ->
          Option.map
            (fun p -> { kind = "scenario"; program = p })
            (Analysis.Scenarios.program name))
        Analysis.Scenarios.all;
      List.filter_map
        (fun name ->
          Option.map
            (fun p -> { kind = "campaign"; program = p })
            (Faults.Campaign.program name))
        Faults.Campaign.workloads;
      List.map
        (fun p -> { kind = "bench"; program = p })
        Experiments.Pipeline_bench.access_programs;
      List.map
        (fun p -> { kind = "shard"; program = p })
        Workload.Programs.shard_programs;
      List.map
        (fun p -> { kind = "dds"; program = p })
        Workload.Programs.dds_programs;
    ]

(* The seeded-bug programs and the exact rule(s) each must trip. *)
let expected_rules = function
  | "scenario", "file_service_nofence" -> [ "static-unfenced-release" ]
  | "scenario", "cas_missing_release" -> [ "static-lock-leak" ]
  | "scenario", "cas_double_apply" -> [ "static-cas-reissue" ]
  | "scenario", "frame_overrun" -> [ "static-bounds" ]
  | "shard", "shard_map_publish_unfenced" -> [ "static-unfenced-publish" ]
  | _ -> []

let expected_ordered = function
  | "scenario", ("producer_consumer" | "file_service_nofence") -> true
  | "shard", "shard_map_publish_unfenced" -> true
  | _ -> false

let analyze e =
  ( Analysis.Static.Verify.check e.program,
    Analysis.Static.Pipesafe.classify e.program )

let print_entry e (findings, verdict) =
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

let entry_json e (findings, verdict) =
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
let assert_static ~out e (findings, verdict) =
  let name = e.program.Workload.Program.name in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.fprintf out "   FAIL %s %s: %s\n" e.kind name msg;
        false)
      fmt
  in
  let got = List.map (fun (f : Analysis.Static.Finding.t) -> f.rule) findings in
  let want = expected_rules (e.kind, name) in
  let rules_ok =
    if List.sort_uniq compare got = List.sort compare want then true
    else
      fail "expected rules [%s], got [%s]"
        (String.concat ", " want)
        (String.concat ", " got)
  in
  let verdict_ok =
    match (verdict, expected_ordered (e.kind, name)) with
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

(* --ci leg 2: the two headline static findings that FIFO runs pass,
   each confirmed by exploration of the matching dynamic scenario —
   clean FIFO baseline, a failing schedule of the right kind, and a
   certificate that replays to the same kind. *)
let assert_dynamic ~out name ~expect_kind =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.fprintf out "   FAIL cross-validation %s: %s\n" name msg;
        false)
      fmt
  in
  let r = Analysis.Explore.explore name in
  let baseline_ok =
    match r.baseline.failure with
    | None -> true
    | Some f ->
        fail "FIFO baseline failed: %s" (Analysis.Explore.describe_failure f)
  in
  let failure_ok =
    match
      List.find_opt
        (fun (o : Analysis.Explore.outcome) ->
          match o.failure with
          | Some f -> Analysis.Explore.failure_kind f = expect_kind
          | None -> false)
        r.failures
    with
    | None ->
        fail "no %S failure in %d schedule(s), %d failing" expect_kind
          r.stats.executed r.stats.failing
    | Some first -> (
        let replayed = Analysis.Explore.replay name first.schedule in
        match replayed.failure with
        | Some f when Analysis.Explore.failure_kind f = expect_kind ->
            Printf.fprintf out
              "   cross-validated %s: schedule %s replays to %s\n" name
              (Analysis.Schedule.to_string first.schedule)
              expect_kind;
            true
        | Some f ->
            fail "certificate %s replayed to %s, expected %s"
              (Analysis.Schedule.to_string first.schedule)
              (Analysis.Explore.failure_kind f)
              expect_kind
        | None ->
            fail "certificate %s replayed clean, expected %s"
              (Analysis.Schedule.to_string first.schedule)
              expect_kind)
  in
  baseline_ok && failure_ok

let main workload (m : Cli.mode) =
  let entries =
    Cli.select ~what:"program"
      ~name:(fun e -> e.program.Workload.Program.name)
      (catalog ()) workload
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
    let names =
      List.map (fun e -> e.program.Workload.Program.name) entries
    in
    let dynamic_ok =
      (* Only when the seeded programs are in scope, so -w runs stay
         cheap; the @protocheck alias runs the whole catalog. *)
      Cli.run_all
        (fun (name, expect_kind) ->
          (not (List.mem name names)) || assert_dynamic ~out name ~expect_kind)
        [
          ("frame_overrun", "finding");
          ("cas_double_apply", "linearizability");
        ]
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
      $ Cli.workload
          ~doc:"Program to verify (or $(b,all) for the whole catalog)." ())
