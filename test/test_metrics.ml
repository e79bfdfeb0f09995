(* Tests for the metrics library. *)

let feps = Alcotest.float 1e-6

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let summary_known_values () =
  let s = Metrics.Summary.create () in
  List.iter (Metrics.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.check feps "mean" 5.0 (Metrics.Summary.mean s);
  Alcotest.check feps "min" 2.0 (Metrics.Summary.min s);
  Alcotest.check feps "max" 9.0 (Metrics.Summary.max s)

let summary_empty () =
  let s = Metrics.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Metrics.Summary.mean s));
  Alcotest.(check bool) "min and max nan" true
    (Float.is_nan (Metrics.Summary.min s) && Float.is_nan (Metrics.Summary.max s));
  Alcotest.check feps "percentile of nothing" 0. (Metrics.Summary.percentile [||] 0.5);
  let one = Metrics.Summary.create () in
  Metrics.Summary.add one 4.;
  List.iter
    (fun m -> Alcotest.check feps "merge with empty" 4. (Metrics.Summary.mean m))
    [ Metrics.Summary.merge s one; Metrics.Summary.merge one s ];
  Alcotest.(check bool) "empty histogram percentile nan" true
    (Float.is_nan (Metrics.Histogram.percentile (Metrics.Histogram.create ()) 50.))

let summary_merge =
  QCheck.Test.make ~name:"summary merge equals concatenation" ~count:200
    QCheck.(pair (list (float_range 0. 1000.)) (list (float_range 0. 1000.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let build values =
        let s = Metrics.Summary.create () in
        List.iter (Metrics.Summary.add s) values;
        s
      in
      let merged = Metrics.Summary.merge (build xs) (build ys) in
      let whole = build (xs @ ys) in
      let close a b = Float.abs (a -. b) < 1e-6 *. (1. +. Float.abs b) in
      close (Metrics.Summary.mean merged) (Metrics.Summary.mean whole)
      && close (Metrics.Summary.min merged) (Metrics.Summary.min whole)
      && close (Metrics.Summary.max merged) (Metrics.Summary.max whole))

let histogram_percentiles () =
  let h = Metrics.Histogram.create ~least:1.0 ~growth:1.1 () in
  for i = 1 to 1000 do
    Metrics.Histogram.add h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  let p50 = Metrics.Histogram.percentile h 50. in
  Alcotest.(check bool) "median near 500" true (p50 > 450. && p50 < 560.);
  let p99 = Metrics.Histogram.percentile h 99. in
  Alcotest.(check bool) "p99 near 990" true (p99 > 900. && p99 < 1100.)

let histogram_validation () =
  Alcotest.check_raises "least > 0"
    (Invalid_argument "Histogram.create: least must be positive") (fun () ->
      ignore (Metrics.Histogram.create ~least:0. ()));
  Alcotest.check_raises "growth > 1"
    (Invalid_argument "Histogram.create: growth must exceed 1") (fun () ->
      ignore (Metrics.Histogram.create ~growth:1.0 ()))

let account_accumulation () =
  let a = Metrics.Account.create () in
  Metrics.Account.add a ~category:"x" 1.5;
  Metrics.Account.add a ~category:"y" 2.0;
  Metrics.Account.add a ~category:"x" 0.5;
  Alcotest.check feps "x total" 2.0 (Metrics.Account.total_of a "x");
  Alcotest.check feps "y total" 2.0 (Metrics.Account.total_of a "y");
  Alcotest.check feps "grand" 4.0 (Metrics.Account.grand_total a);
  Alcotest.check feps "missing is zero" 0. (Metrics.Account.total_of a "z");
  Alcotest.(check (list string))
    "categories in first-seen order" [ "x"; "y" ]
    (Metrics.Account.categories a);
  Metrics.Account.reset a;
  Alcotest.check feps "reset" 0. (Metrics.Account.grand_total a)

let table_renders () =
  let t =
    Metrics.Table.make ~title:"T"
      [ Metrics.Table.label "name"; Metrics.Table.number "value" (Fixed 0) ]
      [ [ Metrics.Table.text "alpha"; Metrics.Table.num 1. ] ]
      ~total:[ Metrics.Table.text "total"; Metrics.Table.num 1. ]
  in
  let out = Metrics.Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "contains row" true
    (contains out "alpha" && contains out "value")

let table_validates_width () =
  Alcotest.check_raises "cell count"
    (Invalid_argument "Table.make: wrong number of cells") (fun () ->
      ignore
        (Metrics.Table.make
           [ Metrics.Table.label "a" ]
           [ [ Metrics.Table.text "1"; Metrics.Table.text "2" ] ]
          : Metrics.Table.t))

let bar_chart_renders () =
  let module T = Metrics.Table in
  let out =
    T.render
      (T.make ~layout:Bars
         [ T.label "op"; T.label "scheme"; T.number "a" (Fixed 1); T.number "b" (Fixed 1) ]
         [
           [ T.text "op"; T.text "HY"; T.num 10.; T.num 20. ];
           [ T.text "op"; T.text "DX"; T.num 15.; T.num 0. ];
         ])
  in
  Alcotest.(check bool) "mentions legend" true (contains out "legend");
  Alcotest.(check bool) "mentions both bars" true
    (contains out "HY" && contains out "DX")

(* A violation line names its row by the row's text cells; an empty one
   (a blank label) adds nothing, not a bare ": ". *)
let violation_skips_empty_text () =
  let module T = Metrics.Table in
  let t =
    T.make ~title:"t"
      [ T.label "op"; T.label "note"; T.number "n" (Fixed 0) ]
      [ [ T.text "read"; T.text ""; T.num ~band:[ T.Le 1. ] 2. ] ]
  in
  match T.violations t with
  | [ line ] ->
      Alcotest.(check bool) ("row named once: " ^ line) true
        (String.length line > 12 && String.sub line 0 12 = "t: read: n =")
  | lines -> Alcotest.failf "expected one violation, got %d" (List.length lines)

let percentile_within_range =
  QCheck.Test.make ~name:"percentiles bounded by min/max" ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 200) (float_range 0.5 10000.))
        (float_range 0. 100.))
    (fun (values, p) ->
      let h = Metrics.Histogram.create ~least:0.1 () in
      List.iter (Metrics.Histogram.add h) values;
      let v = Metrics.Histogram.percentile h p in
      let s = Metrics.Histogram.summary h in
      (* Lower edge may under-report by one bucket's resolution. *)
      v >= Metrics.Summary.min s /. 1.2 && v <= Metrics.Summary.max s *. 1.2)

(* The printers of instants, descriptors, policies and notification
   kinds, across the cases a run's reports never print. *)
let pp_smoke () =
  let time = Sim.Time.to_string in
  Alcotest.(check (list string)) "instants" [ "999ns"; "1.50us"; "2.000ms"; "3.000s" ]
    (List.map time [ 999; 1500; Sim.Time.ms 2; Sim.Time.ms 3000 ]);
  let desc =
    Rmem.Descriptor.create ~remote:(Atm.Addr.of_int 3) ~segment_id:7
      ~generation:(Rmem.Generation.of_int 2) ~size:64 ~rights:Rmem.Rights.write_only
  in
  Rmem.Descriptor.mark_stale desc;
  Alcotest.(check bool) "a stale descriptor" true
    (contains (Format.asprintf "%a" Rmem.Descriptor.pp desc) " STALE");
  Alcotest.(check string) "rights" "-w-" (Rmem.Manifest.rights_to_string Rmem.Rights.write_only);
  Alcotest.(check (list string)) "kinds" [ "write"; "read"; "cas" ]
    (List.map Rmem.Notification.kind_to_string
       [ Rmem.Notification.Write_arrived; Read_served; Cas_applied ]);
  Alcotest.(check (list string)) "policies" [ "always"; "never"; "conditional" ]
    (List.map Rmem.Segment.policy_to_string [ Rmem.Segment.Always; Never; Conditional ]);
  Alcotest.(check (list string)) "status exceptions"
    [ "Rmem.Status.Remote_error(" ^ Rmem.Status.to_string Rmem.Status.Bounds ^ ")";
      "Rmem.Status.Timeout" ]
    (List.map Printexc.to_string
       [ Rmem.Status.Remote_error Rmem.Status.Bounds; Rmem.Status.Timeout ]);
  Alcotest.(check string) "other exceptions" "Not_found" (Printexc.to_string Not_found);
  Alcotest.(check string) "expressions" "i+4*j"
    (Workload.Program.expr_to_string
       (Workload.Program.Add (Var "i", Mul (Const 4, Var "j"))))

(* Counting bytes on the data path: the int is converted inside the
   account, so an add boxes no float. *)
let account_add_int_allocates_nothing () =
  let a = Metrics.Account.create () in
  let words =
    Rig.words_per_op ~n:1000 (fun () ->
        Metrics.Account.add_int a ~category:"bytes" 4096)
  in
  Alcotest.check feps "sum" (4096. *. 1001.) (Metrics.Account.total_of a "bytes");
  Rig.within_budget "Account.add_int" ~words ~budget:0.1

(* The JSON reader and writer on every escape: a string with each
   escaped character round-trips, the escapes only a foreign writer
   emits decode (a surrogate to U+FFFD), a malformed document is an
   error, and an accessor of the wrong shape is [None]. *)
let json_escapes () =
  let module J = Metrics.Json in
  let parse_string text =
    match J.parse text with Ok (J.String s) -> s | _ -> Alcotest.failf "no string: %s" text
  in
  let s = "q\"b\\s\r\t\001\n" in
  Alcotest.(check string) "round trip" s (parse_string (J.write (J.String s)));
  Alcotest.(check string) "foreign escapes" "/\b\012\xc3\xa9\xe2\x82\xac\xef\xbf\xbd"
    (parse_string {|"\/\b\f\u00e9\u20ac\ud800"|});
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ text) true (Result.is_error (J.parse text)))
    [ {|"\|}; {|"\u12"|}; {|"\uzzzz"|}; {|"\q"|}; "tru"; "-" ];
  let v = Result.get_ok (J.parse {|{"a": {}, "b": [1]}|}) in
  Alcotest.(check bool) "wrong shapes" true
    (Option.bind (J.member "a" v) (J.member "x") = None
    && J.member "x" (J.Number 1.) = None
    && J.to_list (J.Number 1.) = None
    && J.to_string (J.Number 1.) = None)

let suite =
  [
    Alcotest.test_case "summary known values" `Quick summary_known_values;
    Alcotest.test_case "pretty printers" `Quick pp_smoke;
    QCheck_alcotest.to_alcotest percentile_within_range;
    Alcotest.test_case "summary empty" `Quick summary_empty;
    Alcotest.test_case "histogram percentiles" `Quick histogram_percentiles;
    Alcotest.test_case "histogram validation" `Quick histogram_validation;
    Alcotest.test_case "account accumulation" `Quick account_accumulation;
    Alcotest.test_case "account add_int allocates nothing" `Quick
      account_add_int_allocates_nothing;
    Alcotest.test_case "table renders" `Quick table_renders;
    Alcotest.test_case "table validates width" `Quick table_validates_width;
    Alcotest.test_case "bar chart renders" `Quick bar_chart_renders;
    Alcotest.test_case "violation skips empty text cells" `Quick
      violation_skips_empty_text;
    QCheck_alcotest.to_alcotest summary_merge;
    Alcotest.test_case "json escapes" `Quick json_escapes;
  ]
