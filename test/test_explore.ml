(* End-to-end tests for the DPOR schedule explorer: the default FIFO
   order is bit-identical to an explicit first-enabled scheduler, the
   seeded schedule bugs are found (which the single-schedule race
   checker cannot do), failure certificates replay deterministically,
   and the clean workloads exhaust their schedule space clean. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let access_trace monitor =
  List.map
    (fun (a : Analysis.Access.t) ->
      Printf.sprintf "%s@%s" (Analysis.Access.describe a)
        (Sim.Time.to_string a.Analysis.Access.time))
    (Analysis.Monitor.accesses monitor)

(* The scheduler hook must be a pure refactor: installing a scheduler
   that always picks the first enabled event reproduces the default
   (no-scheduler fast path) access trace exactly, for every workload. *)
let default_equals_explicit_fifo () =
  List.iter
    (fun (name, (e : Catalog.model)) ->
      let fifo_run ~explicit =
        let prep = e.prepare () in
        let engine = Cluster.Testbed.engine prep.Analysis.Scenarios.testbed in
        if explicit then
          Sim.Engine.set_scheduler engine
            (Some (fun c -> List.hd c.Sim.Engine.enabled));
        Sim.Engine.run engine;
        check_bool
          (Printf.sprintf "%s finished" name)
          true
          (prep.Analysis.Scenarios.finished ());
        access_trace prep.Analysis.Scenarios.monitor
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: identical traces" name)
        (fifo_run ~explicit:false) (fifo_run ~explicit:true))
    Catalog.model

let prepare name = (List.assoc name Catalog.model).Catalog.prepare
let explore name = Analysis.Explore.explore name (prepare name)

let seeded =
  List.filter (fun (_, (e : Catalog.model)) -> e.expect <> Catalog.Clean)
    Catalog.model

let torn_record_found () =
  let r = explore "torn_record" in
  (* FIFO alone sees nothing: the baseline is clean and — one node, one
     agent — the race detector is structurally blind to the tear. *)
  check_bool "baseline clean" true (r.baseline.failure = None);
  check_bool "adversarial schedules tear the record" true
    (r.stats.failing > 0);
  List.iter
    (fun (o : Analysis.Explore.outcome) ->
      match o.failure with
      | Some (Analysis.Explore.Invariant_violated _) -> ()
      | _ -> Alcotest.fail "expected invariant violations only")
    r.failures;
  check_bool "within budget" true (not r.stats.budget_exhausted)

let cas_missing_release_found () =
  let r = explore "cas_missing_release" in
  check_bool "baseline clean" true (r.baseline.failure = None);
  check_bool "adversarial schedules deadlock" true (r.stats.failing > 0);
  let deadlocks =
    List.filter_map
      (fun (o : Analysis.Explore.outcome) ->
        match o.failure with
        | Some (Analysis.Explore.Deadlock report) -> Some report
        | _ -> None)
      r.failures
  in
  check_bool "at least one deadlock" true (deadlocks <> []);
  (* The report names who is stuck on what. *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      i + n <= h && (String.sub hay i n = needle || scan (i + 1))
    in
    scan 0
  in
  check_bool "report names the baton mailbox" true
    (List.exists (fun report -> contains report "baton") deadlocks)

let replay_is_deterministic () =
  List.iter
    (fun (name, (e : Catalog.model)) ->
      let r = Analysis.Explore.explore name e.prepare in
      match r.failures with
      | [] -> Alcotest.fail (name ^ ": expected failures")
      | first :: _ ->
          let once = Analysis.Explore.replay e.prepare first.schedule in
          let twice = Analysis.Explore.replay e.prepare first.schedule in
          let kind o =
            let kind, detail = Analysis.Explore.outcome_status o in
            kind ^ ": " ^ detail
          in
          check_bool
            (name ^ ": replay reproduces the exploration failure")
            true
            (kind once = kind first);
          Alcotest.(check string)
            (name ^ ": replay is stable")
            (kind once) (kind twice);
          check_int
            (name ^ ": same choice points")
            first.choice_points once.choice_points)
    seeded

let replay_validates_certificates () =
  check_bool "wrong enabled count rejected" true
    (try
       ignore
         (Analysis.Explore.replay (prepare "torn_record")
            (Analysis.Schedule.of_string "0/5"));
       false
     with Analysis.Explore.Certificate_mismatch _ -> true)

let clean_workloads_stay_clean () =
  List.iter
    (fun (name, (e : Catalog.model)) ->
      if e.expect = Catalog.Clean then begin
        let r = Analysis.Explore.explore name e.prepare in
        check_int (name ^ ": no failing schedule") 0 r.stats.failing;
        check_bool (name ^ ": space exhausted, not budget") true
          (not r.stats.budget_exhausted);
        check_int
          (name ^ ": every execution accounted for")
          r.stats.executed
          (r.stats.distinct + r.stats.redundant)
      end)
    Catalog.model

let suite =
  [
    Alcotest.test_case "default order = explicit FIFO scheduler" `Quick
      default_equals_explicit_fifo;
    Alcotest.test_case "torn record found" `Quick torn_record_found;
    Alcotest.test_case "missing CAS release found" `Quick
      cas_missing_release_found;
    Alcotest.test_case "replay is deterministic" `Quick
      replay_is_deterministic;
    Alcotest.test_case "replay validates certificates" `Quick
      replay_validates_certificates;
    Alcotest.test_case "clean workloads stay clean" `Quick
      clean_workloads_stay_clean;
  ]
