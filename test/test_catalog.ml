(* The workload catalog's views: the exact workload set each checker
   runs, the seeded bugs' declared failure kinds, the chaos matrix's
   pinned (label, seed) legs, and programs named after their entries. *)

let names l = List.map fst l
let sorted l = List.sort compare l
let check_set what want got =
  Alcotest.(check (list string)) what (sorted want) (sorted got)

let scenarios_checked =
  [
    "kv_store";
    "producer_consumer";
    "file_service";
    "name_service";
    "torn_record";
    "cas_missing_release";
    "cas_double_apply";
    "frame_overrun";
    "dds_register_no_writeback";
  ]

let data_campaigns =
  [ "quickstart"; "name_service"; "producer_consumer"; "replica" ]

let race_set () =
  check_set "race"
    ([ "file_service_nofence"; "racy" ] @ scenarios_checked)
    (names Catalog.race);
  let flagged what f =
    names (List.filter (fun (_, (r : Catalog.race)) -> f r) Catalog.race)
    |> check_set what
  in
  flagged "races expected" (fun r -> r.races)
    [ "file_service_nofence"; "racy" ];
  flagged "findings expected" (fun r -> r.findings) [ "name_service" ]

let model_set () =
  check_set "model" scenarios_checked (names Catalog.model);
  let fails =
    List.filter_map
      (fun (name, (m : Catalog.model)) ->
        match m.expect with
        | Catalog.Clean -> None
        | Catalog.Fails kind -> Some (name ^ ":" ^ kind))
      Catalog.model
  in
  check_set "seeded kinds"
    [
      "torn_record:invariant";
      "cas_missing_release:deadlock";
      "cas_double_apply:linearizability";
      "frame_overrun:finding";
      "dds_register_no_writeback:linearizability";
    ]
    fails

let lin_set () =
  let source s =
    List.filter_map
      (fun (name, h) -> if Catalog.source h = s then Some name else None)
      Catalog.lin
  in
  Alcotest.(check int) "16 histories" 16 (List.length Catalog.lin);
  check_set "scenario histories" scenarios_checked (source "scenario");
  check_set "campaign histories" data_campaigns (source "campaign");
  check_set "dds histories"
    [ "dds_hashtable"; "dds_queue"; "dds_register" ]
    (source "dds");
  Alcotest.(check (list string))
    "grouped by source"
    (List.concat_map source [ "scenario"; "campaign"; "dds" ])
    (names Catalog.lin);
  check_set "seeded explorations"
    [ "cas_double_apply"; "dds_register_no_writeback" ]
    (names
       (List.filter
          (fun (_, (m : Catalog.model)) ->
            m.expect = Catalog.Fails "linearizability")
          Catalog.model))

let proto_set () =
  let programs = Catalog.proto in
  let name (p : Catalog.program) = p.program.Workload.Program.name in
  Alcotest.(check int) "25 programs" 25 (List.length programs);
  Alcotest.(check int)
    "23 names" 23
    (List.length (List.sort_uniq compare (List.map name programs)));
  Alcotest.(check (list string))
    "grouped by kind"
    [ "scenario"; "campaign"; "bench"; "shard"; "dds" ]
    (List.fold_left
       (fun ks (p : Catalog.program) ->
         if List.mem p.kind ks then ks else ks @ [ p.kind ])
       [] programs);
  check_set "confirmed by exploration"
    [ "cas_double_apply:linearizability"; "frame_overrun:finding" ]
    (List.filter_map
       (fun (p : Catalog.program) ->
         Option.map (fun (_, kind) -> name p ^ ":" ^ kind) p.confirm)
       programs)

let chaos_set () =
  check_set "chaos and obs" (data_campaigns @ [ "crash_restart" ])
    (names Catalog.campaigns);
  let legs =
    List.map
      (fun (name, _, (leg : Catalog.leg)) ->
        Printf.sprintf "%s %s %d%s" name leg.label leg.seed
          (if leg.chain then " chain" else ""))
      (Catalog.chaos_matrix Catalog.campaigns)
  in
  (* Seeds 1000 + 17 i + per-mille loss, i the position in the data
     workloads; the fault digests depend on them. *)
  Alcotest.(check (list string))
    "the 14-leg CI matrix"
    [
      "quickstart loss 0% 1000";
      "name_service loss 0% 1017";
      "producer_consumer loss 0% 1034";
      "replica loss 0% 1051";
      "quickstart loss 1% 1010";
      "name_service loss 1% 1027";
      "producer_consumer loss 1% 1044";
      "replica loss 1% 1061";
      "quickstart loss 10% 1100";
      "name_service loss 10% 1117";
      "producer_consumer loss 10% 1134";
      "replica loss 10% 1151";
      "replica partition heal 2100";
      "crash_restart crash/restart 2200 chain";
    ]
    legs

let trace_set () =
  check_set "trace"
    [ "quickstart"; "name_service"; "producer_consumer"; "file_service" ]
    (names Catalog.trace);
  check_set "decomposes" [ "quickstart" ]
    (names
       (List.filter
          (fun (_, (t : Catalog.trace)) -> t.decomposes)
          Catalog.trace))

let programs_named () =
  List.iter
    (fun (e : Catalog.t) ->
      List.iter
        (fun (p : Catalog.program) ->
          Alcotest.(check string)
            (e.name ^ " program") e.name p.program.Workload.Program.name)
        e.proto)
    Catalog.all;
  let all = List.map (fun (e : Catalog.t) -> e.name) Catalog.all in
  Alcotest.(check int)
    "one record per name" (List.length all)
    (List.length (List.sort_uniq compare all))

let suite =
  [
    Alcotest.test_case "race set" `Quick race_set;
    Alcotest.test_case "model set and seeded kinds" `Quick model_set;
    Alcotest.test_case "lin histories and explorations" `Quick lin_set;
    Alcotest.test_case "proto programs" `Quick proto_set;
    Alcotest.test_case "chaos, obs and the CI matrix" `Quick chaos_set;
    Alcotest.test_case "trace set" `Quick trace_set;
    Alcotest.test_case "programs carry their entry's name" `Quick
      programs_named;
  ]
