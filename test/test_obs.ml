(* Tests for the observability layer: span-tree shapes for each
   meta-instruction, the cluster-wide registry, histogram aggregation,
   composable LRPC monitors, and tracing's zero-perturbation guarantee. *)

let feps = Alcotest.float 1e-9

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let assert_valid name trace =
  match Obs.Trace.validate trace with
  | Ok () -> ()
  | Error problems ->
      Alcotest.failf "%s: invalid trace: %s" name (String.concat "; " problems)

let root_named trace name =
  match
    List.filter
      (fun (s : Obs.Span.t) -> s.Obs.Span.name = name)
      (Obs.Trace.roots trace)
  with
  | s :: _ -> s
  | [] -> Alcotest.failf "no %s root span" name

let child_names trace root =
  List.sort_uniq compare
    (List.map
       (fun (s : Obs.Span.t) -> s.Obs.Span.name)
       (Obs.Trace.children trace root))

let sum_children trace root =
  List.fold_left
    (fun acc s -> acc +. Obs.Span.duration_us s)
    0.
    (Obs.Trace.children trace root)

(* Replays are deterministic; share one run per workload across tests. *)
let replay name = (List.assoc name Catalog.trace).Catalog.replay ()
let quickstart = lazy (replay "quickstart")
let file_service = lazy (replay "file_service")

(* ------------------------------------------------------------------ *)
(* Span-tree shapes.                                                   *)

let write_tree () =
  let run = Lazy.force quickstart in
  assert_valid "quickstart" run.Catalog.spans;
  let trace = run.Catalog.spans in
  let w = root_named trace "WRITE" in
  let children = Obs.Trace.children trace w in
  Alcotest.(check bool)
    "WRITE has >= 4 phase children" true
    (List.length children >= 4);
  let names = child_names trace w in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "WRITE has a %s phase" phase)
        true (List.mem phase names))
    [ "trap"; "nic"; "wire"; "serve"; "notify" ];
  (* Phases are contiguous: they tile the root's end-to-end latency. *)
  let e2e = Obs.Span.duration_us w in
  let sum = sum_children trace w in
  Alcotest.(check bool)
    (Printf.sprintf "phases (%.2f us) sum to e2e (%.2f us)" sum e2e)
    true
    (Float.abs (sum -. e2e) <= 0.01 *. e2e);
  (* Every child nests inside the root's interval. *)
  List.iter
    (fun (c : Obs.Span.t) ->
      Alcotest.(check bool) "child starts after root" true
        (Sim.Time.compare c.Obs.Span.start w.Obs.Span.start >= 0);
      Alcotest.(check bool) "child ends by root finish" true
        (Sim.Time.compare c.Obs.Span.finish w.Obs.Span.finish <= 0))
    children;
  (* The serve phase runs on the remote node. *)
  let serve =
    List.find (fun (s : Obs.Span.t) -> s.Obs.Span.name = "serve") children
  in
  Alcotest.(check bool) "serve runs on a different node" true
    (serve.Obs.Span.node <> w.Obs.Span.node)

let read_and_cas_trees () =
  let run = Lazy.force quickstart in
  let trace = run.Catalog.spans in
  List.iter
    (fun op ->
      let root = root_named trace op in
      let names = child_names trace root in
      List.iter
        (fun phase ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has a %s phase" op phase)
            true (List.mem phase names))
        [ "trap"; "wire"; "serve"; "deliver" ];
      List.iter
        (fun (c : Obs.Span.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s child %s starts after root" op c.Obs.Span.name)
            true
            (Sim.Time.compare c.Obs.Span.start root.Obs.Span.start >= 0))
        (Obs.Trace.children trace root))
    [ "READ"; "CAS" ]

let file_service_scopes () =
  let run = Lazy.force file_service in
  assert_valid "file_service" run.Catalog.spans;
  let trace = run.Catalog.spans in
  let roots = Obs.Trace.roots trace in
  let scoped prefix op =
    List.exists
      (fun (s : Obs.Span.t) ->
        starts_with ~prefix s.Obs.Span.name
        && List.exists
             (fun (c : Obs.Span.t) -> c.Obs.Span.name = op)
             (Obs.Trace.children trace s))
      roots
  in
  (* DX fetches through remote READs; Hybrid-1 ships the request as a
     WRITE with notification. The clerk scope must enclose them. *)
  Alcotest.(check bool) "a DX scope encloses a READ" true (scoped "DX:" "READ");
  Alcotest.(check bool) "an HY scope encloses a WRITE" true
    (scoped "HY:" "WRITE")

let all_replays_validate () =
  List.iter
    (fun (name, (t : Catalog.trace)) ->
      let run = t.replay () in
      let trace = run.Catalog.spans in
      assert_valid name trace;
      Alcotest.(check bool)
        (Printf.sprintf "%s records spans" name)
        true
        (Obs.Trace.span_count trace > 0);
      (* No orphans, same-trace parentage, monotone timestamps. *)
      let spans = Obs.Trace.spans trace in
      List.iter
        (fun (s : Obs.Span.t) ->
          Alcotest.(check bool) "finish >= start" true
            (Sim.Time.compare s.Obs.Span.finish s.Obs.Span.start >= 0);
          if not (Obs.Span.is_root s) then
            match Obs.Trace.find trace s.Obs.Span.parent with
            | None ->
                Alcotest.failf "%s: span %d orphaned (parent %d)" name
                  s.Obs.Span.id s.Obs.Span.parent
            | Some p ->
                Alcotest.(check int)
                  (Printf.sprintf "span %d shares its parent's trace"
                     s.Obs.Span.id)
                  p.Obs.Span.trace s.Obs.Span.trace)
        spans)
    Catalog.trace

let chrome_export () =
  let run = Lazy.force quickstart in
  let json = Obs.Export.chrome_json run.Catalog.spans in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains json needle))
    [
      "{\"traceEvents\":[";
      "\"ph\":\"X\"";
      "\"name\":\"WRITE\"";
      "\"ph\":\"M\"";
      "\"displayTimeUnit\"";
    ]

(* The process-name rows come in ascending pid order, whatever order
   the spans visited their nodes in: a hash-seeded order would make the
   exported file vary between runs. *)
let chrome_process_rows_sorted () =
  let run = Lazy.force quickstart in
  let json = Obs.Export.chrome_json run.Catalog.spans in
  let events =
    match Metrics.Json.parse json with
    | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
    | Ok v ->
        Option.value ~default:[]
          (Option.bind (Metrics.Json.member "traceEvents" v) Metrics.Json.to_list)
  in
  let pids =
    List.filter_map
      (fun e ->
        match Option.bind (Metrics.Json.member "ph" e) Metrics.Json.to_string with
        | Some "M" ->
            Option.map int_of_float
              (Option.bind (Metrics.Json.member "pid" e) Metrics.Json.to_number)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "several process rows" true (List.length pids > 1);
  Alcotest.(check (list int)) "process rows in ascending pid order"
    (List.sort_uniq Int.compare pids) pids

(* ------------------------------------------------------------------ *)
(* Span accounting agrees with direct engine-clock measurement.        *)

let decompose_agreement () =
  let d = Experiments.Table1a.decompose () in
  (* The spans' tree validates, and each op's span total sits within 1%
     of the direct timing: the report's bands. *)
  Alcotest.(check (list string)) "every band holds" []
    (Metrics.Table.violations d);
  Alcotest.(check int) "WRITE, READ and CAS" 3 (List.length d.rows);
  List.iter
    (fun row ->
      match row with
      | Metrics.Table.
          [ { value = Text op; _ }; _; _; { value = Text phases; _ } ] ->
          Alcotest.(check bool)
            (Printf.sprintf "%s decomposes into phases" op)
            true (phases <> "")
      | _ -> Alcotest.fail "decomposition row: op, direct, spans, phases")
    d.rows

(* ------------------------------------------------------------------ *)
(* Zero perturbation: the same run, attached or detached, takes the    *)
(* same simulated time.                                                *)

let measure_with_tracer traced =
  let d = Rig.duo () in
  let trace =
    if traced then begin
      let t = Obs.Trace.create d.Rig.engine in
      Obs.Trace.attach t;
      Some t
    end
    else None
  in
  Fun.protect
    ~finally:(fun () -> if traced then Obs.Trace.detach ())
    (fun () ->
      let timings = ref [] in
      Rig.run d (fun () ->
          let _seg, desc = Rig.shared_segment d in
          let buf = Rig.buffer0 d in
          let (), w_us =
            Rig.elapsed_us d (fun () ->
                Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0
                  (Bytes.make 256 'x'))
          in
          let _n, r_us =
            Rig.elapsed_us d (fun () ->
                Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0
                  ~count:256 ~dst:buf ~doff:0 ())
          in
          let _witness, c_us =
            Rig.elapsed_us d (fun () ->
                Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:512
                  ~old_value:0 ~new_value:7 ())
          in
          timings := [ w_us; r_us; c_us ]);
      ignore trace;
      !timings)

let tracing_is_free () =
  let detached = measure_with_tracer false in
  let attached = measure_with_tracer true in
  List.iter2
    (fun a b -> Alcotest.check feps "same simulated latency" a b)
    detached attached

let table2_unperturbed () =
  let baseline = Experiments.Table2.run () in
  let t = Obs.Trace.create (Sim.Engine.create ()) in
  Obs.Trace.attach t;
  let traced =
    Fun.protect ~finally:Obs.Trace.detach (fun () -> Experiments.Table2.run ())
  in
  (* Row name, then paper, measured, unit and delta. *)
  let measured (row : Metrics.Table.cell list) =
    match row with
    | { value = Text name; _ } :: _ :: { value = Num v; _ } :: _ -> (name, v)
    | _ -> Alcotest.fail "unexpected Table 2 row"
  in
  List.iter2
    (fun b tr ->
      let name, b = measured b and tr_name, tr = measured tr in
      Alcotest.(check string) "row name" name tr_name;
      Alcotest.check feps
        (Printf.sprintf "Table 2 %S unchanged under tracing" name)
        b tr)
    baseline.Metrics.Table.rows traced.Metrics.Table.rows

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

let registry_counters () =
  let r = Obs.Registry.create () in
  Alcotest.check feps "unset counter reads 0" 0. (Obs.Registry.counter r "x");
  Obs.Registry.incr r "frames";
  Obs.Registry.incr r "frames";
  for _ = 1 to 3 do
    Obs.Registry.incr r "bytes"
  done;
  Alcotest.check feps "frames" 2. (Obs.Registry.counter r "frames");
  Alcotest.check feps "bytes" 3. (Obs.Registry.counter r "bytes");
  Alcotest.(check (list string))
    "counters sorted by name" [ "bytes"; "frames" ]
    (List.map fst (Obs.Registry.counters r))

let registry_series_aggregate () =
  let r = Obs.Registry.create () in
  List.iter
    (fun v -> Obs.Registry.observe r ~node:1 ~seg:7 ~op:"WRITE" v)
    [ 10.; 20.; 30. ];
  List.iter
    (fun v -> Obs.Registry.observe r ~node:2 ~seg:7 ~op:"WRITE" v)
    [ 40.; 50. ];
  Obs.Registry.observe r ~node:1 ~seg:7 ~op:"READ" 99.;
  Alcotest.(check (list string))
    "ops" [ "READ"; "WRITE" ]
    (List.sort compare (Obs.Registry.ops r));
  (match Obs.Registry.histogram r ~node:1 ~seg:7 ~op:"WRITE" with
  | None -> Alcotest.fail "missing (1,7,WRITE) series"
  | Some h -> Alcotest.(check int) "node-1 samples" 3 (Metrics.Histogram.count h));
  (match Obs.Registry.aggregate r ~op:"WRITE" with
  | None -> Alcotest.fail "missing WRITE aggregate"
  | Some h ->
      Alcotest.(check int) "cluster-wide samples" 5 (Metrics.Histogram.count h));
  Alcotest.(check bool) "no such aggregate" true
    (Obs.Registry.aggregate r ~op:"CAS" = None);
  let report = Obs.Registry.report r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %s" needle)
        true (contains report needle))
    [ "WRITE"; "READ" ]

let registry_merge () =
  let a = Obs.Registry.create () and b = Obs.Registry.create () in
  Obs.Registry.incr a "ops";
  for _ = 1 to 4 do
    Obs.Registry.incr b "ops"
  done;
  Obs.Registry.observe a ~node:1 ~seg:1 ~op:"CAS" 5.;
  Obs.Registry.observe b ~node:1 ~seg:1 ~op:"CAS" 6.;
  Obs.Registry.observe b ~node:3 ~seg:1 ~op:"CAS" 7.;
  Obs.Registry.merge_into a b;
  Alcotest.check feps "counters fold" 5. (Obs.Registry.counter a "ops");
  match Obs.Registry.aggregate a ~op:"CAS" with
  | None -> Alcotest.fail "missing CAS aggregate"
  | Some h -> Alcotest.(check int) "series fold" 3 (Metrics.Histogram.count h)

let quickstart_feeds_registry () =
  let run = Lazy.force quickstart in
  let r = run.Catalog.registry in
  List.iter
    (fun op ->
      match Obs.Registry.aggregate r ~op with
      | None -> Alcotest.failf "no %s latency series" op
      | Some h ->
          Alcotest.(check bool)
            (Printf.sprintf "%s samples recorded" op)
            true
            (Metrics.Histogram.count h > 0))
    [ "WRITE"; "READ"; "CAS" ]

(* ------------------------------------------------------------------ *)
(* Histogram aggregation (satellite of the registry).                  *)

let histogram_percentile_bounds () =
  let h = Metrics.Histogram.create () in
  for i = 1 to 2000 do
    Metrics.Histogram.add h (float_of_int i)
  done;
  let _, growth, _ = Metrics.Histogram.params h in
  List.iter
    (fun (p, exact) ->
      let approx = Metrics.Histogram.percentile h p in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f: %.1f within one bucket above %.1f" p approx
           exact)
        true
        (approx >= exact && approx <= exact *. growth *. 1.000001))
    [ (50., 1000.); (95., 1900.); (99., 1980.) ]

let histogram_merge () =
  let build values =
    let h = Metrics.Histogram.create () in
    List.iter (Metrics.Histogram.add h) values;
    h
  in
  let xs = [ 1.; 5.; 120.; 120.; 4000. ] and ys = [ 0.5; 9.; 350. ] in
  let merged = Metrics.Histogram.merge (build xs) (build ys) in
  let whole = build (xs @ ys) in
  Alcotest.(check int) "count" (Metrics.Histogram.count whole)
    (Metrics.Histogram.count merged);
  List.iter
    (fun p ->
      Alcotest.check feps
        (Printf.sprintf "p%.0f equals concatenation" p)
        (Metrics.Histogram.percentile whole p)
        (Metrics.Histogram.percentile merged p))
    [ 10.; 50.; 90.; 99. ];
  Alcotest.(check bool) "buckets equal" true
    (Metrics.Histogram.buckets whole = Metrics.Histogram.buckets merged)

let histogram_merge_layout_mismatch () =
  let a = Metrics.Histogram.create () in
  let b = Metrics.Histogram.create ~growth:1.5 () in
  Alcotest.check_raises "layouts must match"
    (Invalid_argument "Histogram.merge: incompatible bucket layouts")
    (fun () -> ignore (Metrics.Histogram.merge a b))

let histogram_underflow () =
  let h = Metrics.Histogram.create ~least:0.1 () in
  Metrics.Histogram.add h 0.05;
  Metrics.Histogram.add h 1.0;
  Alcotest.(check int) "underflow tracked" 1 (Metrics.Histogram.underflow h)

(* ------------------------------------------------------------------ *)
(* LRPC observers compose: a node-stream subscriber and the tracer's   *)
(* span both see every call.                                           *)

let lrpc_monitor_compose () =
  let d = Rig.duo () in
  let slot = ref 0 in
  let tracer = Obs.Trace.create d.Rig.engine in
  let subscriber = function Cluster.Lrpc.Called -> incr slot | _ -> () in
  Cluster.Node.subscribe d.Rig.node0 subscriber;
  Obs.Trace.attach tracer;
  let lrpc_spans () =
    List.length
      (List.filter
         (fun (s : Obs.Span.t) -> s.cat = "lrpc")
         (Obs.Trace.spans tracer))
  in
  Fun.protect ~finally:Obs.Trace.detach (fun () ->
      Rig.run d (fun () ->
          ignore (Cluster.Lrpc.call d.Rig.node0 (fun x -> x + 1) 1));
      Alcotest.(check int) "subscriber fired" 1 !slot;
      Alcotest.(check int) "tracer saw the call" 1 (lrpc_spans ());
      Cluster.Node.unsubscribe d.Rig.node0 subscriber;
      Rig.run d (fun () ->
          ignore (Cluster.Lrpc.call d.Rig.node0 (fun x -> x + 1) 2));
      Alcotest.(check int) "unsubscribed, silent" 1 !slot;
      Alcotest.(check int) "tracer still sees calls" 2 (lrpc_spans ()))

(* ------------------------------------------------------------------ *)
(* Telemetry plane: time-series sampler, SLO gates and the JSON        *)
(* reader that round-trips the emitted artifacts.                      *)

let timeseries_sampling () =
  let engine = Sim.Engine.create () in
  let ts =
    Obs.Timeseries.create
      ~config:{ Obs.Timeseries.interval = Sim.Time.us 10; capacity = 4 }
      engine
  in
  let v = ref 0. in
  Obs.Timeseries.register ts "g" (fun () -> !v);
  Obs.Timeseries.start ts;
  Sim.Proc.run engine (fun () ->
      for i = 1 to 10 do
        v := float_of_int i;
        Sim.Proc.wait (Sim.Time.us 10)
      done);
  let st = Option.get (Obs.Timeseries.stat ts "g") in
  Alcotest.(check bool) "sampled repeatedly" true (st.Obs.Timeseries.count >= 10);
  Alcotest.check feps "whole-run max survives ring eviction" 10.
    st.Obs.Timeseries.max;
  Alcotest.check feps "first sample predates the workload" 0.
    st.Obs.Timeseries.first;
  Alcotest.(check int)
    "ring keeps only capacity samples" 4
    (List.length (Obs.Timeseries.samples ts "g"));
  Alcotest.(check bool)
    "sampler parked itself at quiescence" false
    (Obs.Timeseries.running ts);
  Alcotest.(check bool)
    "sparkline renders" true
    (Obs.Timeseries.sparkline ts "g" <> "")

let timeseries_window_and_rate () =
  let engine = Sim.Engine.create () in
  let ts =
    Obs.Timeseries.create
      ~config:{ Obs.Timeseries.interval = Sim.Time.us 10; capacity = 64 }
      engine
  in
  (* A gauge that reads the virtual clock in microseconds: its slope is
     exactly one million per second. *)
  Obs.Timeseries.register ts "clk" (fun () ->
      Sim.Time.to_us (Sim.Engine.now engine));
  Obs.Timeseries.start ts;
  Sim.Proc.run engine (fun () -> Sim.Proc.wait (Sim.Time.us 100));
  let rate = Option.get (Obs.Timeseries.rate ts "clk") in
  Alcotest.check (Alcotest.float 1.) "clock slope is 1e6/s" 1_000_000. rate;
  let windowed = Obs.Timeseries.window ts "clk" (Sim.Time.us 30) in
  Alcotest.(check int) "trailing 30us window holds 4 ticks" 4
    (List.length windowed);
  Alcotest.(check bool)
    "unknown gauge reads empty" true
    (Obs.Timeseries.samples ts "nope" = []
    && Obs.Timeseries.stat ts "nope" = None)

let slo_spec =
  String.concat "\n"
    [
      "# latency and counters from the registry";
      "p99 read < 400 us";
      "counter faults.drops <= 0";
      "max clk < 200";
      "last clk >= 100";
      "rate clk < 1500000 over 50 us";
    ]

let slo_context () =
  let engine = Sim.Engine.create () in
  let ts =
    Obs.Timeseries.create
      ~config:{ Obs.Timeseries.interval = Sim.Time.us 10; capacity = 64 }
      engine
  in
  Obs.Timeseries.register ts "clk" (fun () ->
      Sim.Time.to_us (Sim.Engine.now engine));
  Obs.Timeseries.start ts;
  Sim.Proc.run engine (fun () -> Sim.Proc.wait (Sim.Time.us 100));
  let registry = Obs.Registry.create () in
  Obs.Registry.observe registry ~node:0 ~seg:1 ~op:"read" 120.;
  Obs.Registry.observe registry ~node:1 ~seg:1 ~op:"read" 180.;
  {
    Obs.Slo.registry = Some registry;
    series = Some ts;
    duration = Sim.Time.us 100;
  }

let slo_parse_and_pass () =
  let spec =
    match Obs.Slo.parse slo_spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec did not parse: %s" e
  in
  Alcotest.(check int) "five clauses" 5 (List.length spec);
  let report = Obs.Slo.eval (slo_context ()) spec in
  Alcotest.(check int) "one row per clause" 5 (List.length report.rows);
  Alcotest.(check (list string)) "no violations" []
    (Metrics.Table.violations report)

let slo_violations_and_fail_closed () =
  let ctx = slo_context () in
  let spec =
    match
      Obs.Slo.parse
        "p99 read < 100 us\nmax clk < 50\nmax never.sampled < 5\ncounter \
         untouched > 3\np50 unknown_op < 10 us"
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec did not parse: %s" e
  in
  let report = Obs.Slo.eval ctx spec in
  let violations = Metrics.Table.violations report in
  Alcotest.(check int) "every clause violated" 5 (List.length violations);
  (* The last three are fail-closed: no measurement at all. *)
  List.iteri
    (fun i row ->
      if i >= 2 then
        Alcotest.(check bool)
          (Printf.sprintf "clause %d fails closed" i)
          true
          ((List.nth row 1).Metrics.Table.value = Missing))
    report.rows;
  Alcotest.(check bool)
    "each violation names its clause" true
    (List.for_all2
       (fun row v ->
         match row with
         | Metrics.Table.{ value = Text clause; _ } :: _ -> contains v clause
         | _ -> false)
       report.rows violations);
  (match Obs.Slo.parse "bogus clause here" with
  | Ok _ -> Alcotest.fail "nonsense parsed"
  | Error e ->
      Alcotest.(check bool) "parse error names the line" true
        (contains e "bogus"));
  match Obs.Slo.parse "counter x <= 0 over 5 ms" with
  | Ok _ -> Alcotest.fail "counter clause accepted a window"
  | Error _ -> ()

let json_reader () =
  let src =
    "{\"a\": [1, 2.5, true, null, \"x\\u00e9\\n\"], \"b\": {\"c\": -3e2}}"
  in
  (match Metrics.Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      Alcotest.(check (option (float 1e-9)))
        "nested number" (Some (-300.))
        (Option.bind (Metrics.Json.find v [ "b"; "c" ]) Metrics.Json.to_number);
      let a = Option.get (Metrics.Json.member "a" v) in
      Alcotest.(check int) "list length" 5
        (List.length (Option.get (Metrics.Json.to_list a)));
      Alcotest.(check (option string))
        "utf8 escape decodes"
        (Some "x\xc3\xa9\n")
        (Option.bind (Metrics.Json.index 4 a) Metrics.Json.to_string));
  List.iter
    (fun bad ->
      match Metrics.Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid %S" bad
      | Error _ -> ())
    [ "{"; "1 2"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "" ]

let chrome_trace_roundtrip () =
  let run = Lazy.force quickstart in
  let json = Obs.Export.chrome_json run.Catalog.spans in
  match Metrics.Json.parse json with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok v ->
      Alcotest.(check (option string))
        "displayTimeUnit" (Some "ns")
        (Option.bind
           (Metrics.Json.member "displayTimeUnit" v)
           Metrics.Json.to_string);
      let events =
        Option.get
          (Option.bind (Metrics.Json.member "traceEvents" v) Metrics.Json.to_list)
      in
      Alcotest.(check bool) "has events" true (events <> []);
      List.iter
        (fun e ->
          match
            Option.bind (Metrics.Json.member "ph" e) Metrics.Json.to_string
          with
          | Some ("X" | "M") -> ()
          | other ->
              Alcotest.failf "unexpected event phase %s"
                (Option.value ~default:"<none>" other))
        events

(* The tentpole contract: a chaos campaign's fault-plane digest — the
   replay witness — is bit-identical with the sampler on or off, and
   the sampler nevertheless observed the run. *)
let sampling_is_free () =
  let plan = Faults.Campaign.chaos_plan 0.05 in
  let base =
    Faults.Campaign.run ~plan ~seed:11 Faults.Campaign.producer_consumer
  in
  let sampled =
    Faults.Campaign.run ~plan ~sampler:(Sim.Time.us 20) ~seed:11
      Faults.Campaign.producer_consumer
  in
  Alcotest.(check int)
    "fault digest identical under sampling" base.Faults.Campaign.digest
    sampled.Faults.Campaign.digest;
  Alcotest.(check int)
    "same injected fault count" base.Faults.Campaign.events
    sampled.Faults.Campaign.events;
  Alcotest.(check bool)
    "same verdict" true
    (base.Faults.Campaign.survived = sampled.Faults.Campaign.survived
    && base.Faults.Campaign.converged = sampled.Faults.Campaign.converged);
  Alcotest.(check bool)
    "unsampled run carries no series" true
    (base.Faults.Campaign.timeseries = None);
  let ts = Option.get sampled.Faults.Campaign.timeseries in
  Alcotest.(check bool) "sampler ticked" true (Obs.Timeseries.ticks ts > 0);
  Alcotest.(check bool)
    "frames gauge saw traffic" true
    (match Obs.Timeseries.stat ts "faults.frames" with
    | Some st -> st.Obs.Timeseries.last > 0.
    | None -> false);
  Alcotest.(check bool)
    "sampling adds engine events" true
    (sampled.Faults.Campaign.engine_events > base.Faults.Campaign.engine_events)

let suite =
  [
    Alcotest.test_case "WRITE span tree decomposes" `Quick write_tree;
    Alcotest.test_case "READ and CAS span trees" `Quick read_and_cas_trees;
    Alcotest.test_case "DX vs HY clerk scopes" `Quick file_service_scopes;
    Alcotest.test_case "all replays validate" `Quick all_replays_validate;
    Alcotest.test_case "chrome trace export" `Quick chrome_export;
    Alcotest.test_case "span accounting agrees with clock" `Quick
      decompose_agreement;
    Alcotest.test_case "tracing is free" `Quick tracing_is_free;
    Alcotest.test_case "table 2 unperturbed by tracing" `Quick
      table2_unperturbed;
    Alcotest.test_case "registry counters" `Quick registry_counters;
    Alcotest.test_case "registry series and aggregates" `Quick
      registry_series_aggregate;
    Alcotest.test_case "registry merge" `Quick registry_merge;
    Alcotest.test_case "replay feeds the registry" `Quick
      quickstart_feeds_registry;
    Alcotest.test_case "histogram percentile bounds" `Quick
      histogram_percentile_bounds;
    Alcotest.test_case "histogram merge" `Quick histogram_merge;
    Alcotest.test_case "histogram merge layout mismatch" `Quick
      histogram_merge_layout_mismatch;
    Alcotest.test_case "histogram underflow" `Quick histogram_underflow;
    Alcotest.test_case "lrpc monitors compose" `Quick lrpc_monitor_compose;
    Alcotest.test_case "timeseries sampling and ring" `Quick
      timeseries_sampling;
    Alcotest.test_case "timeseries window and rate" `Quick
      timeseries_window_and_rate;
    Alcotest.test_case "slo spec parses and passes" `Quick slo_parse_and_pass;
    Alcotest.test_case "slo violations and fail-closed" `Quick
      slo_violations_and_fail_closed;
    Alcotest.test_case "json reader round-trips" `Quick json_reader;
    Alcotest.test_case "chrome trace round-trips" `Quick
      chrome_trace_roundtrip;
    Alcotest.test_case "sampling is perturbation-free" `Quick sampling_is_free;
    Alcotest.test_case "chrome process rows in pid order" `Quick
      chrome_process_rows_sorted;
  ]
