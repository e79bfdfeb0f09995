(* The static protocol verifier: interval domain, one synthetic program
   per rule, the catalog's expected findings (including zero false
   positives on every campaign program), the pipelining classifier, and
   the manifest extraction. *)

module P = Workload.Program
module Static = Analysis.Static

let ( + ) = Stdlib.( + )

(* ---------------- Interval domain ---------------- *)

let test_interval () =
  let open Static.Interval in
  Alcotest.(check string) "exact" "5" (to_string (exact 5));
  Alcotest.(check string) "add" "[3,12]" (to_string (add (make 1 4) (make 2 8)));
  Alcotest.(check string) "mul spans endpoints" "[-8,12]"
    (to_string (mul (make (-2) 3) (make 2 4)));
  Alcotest.(check string) "mul negatives" "[-12,8]"
    (to_string (mul (make (-2) 3) (make (-4) 1)));
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Interval.make: lo > hi") (fun () ->
      ignore (make 3 2))

(* ---------------- Per-rule synthetic programs ---------------- *)

let one_seg ?(len = 256) ?(rights = Rmem.Rights.all) () =
  [
    {
      Rmem.Manifest.seg = "s";
      exporter = 0;
      len;
      rights;
      grants = [];
      policy = Rmem.Segment.Conditional;
    };
  ]

let prog ?(manifest = one_seg ()) ?(node = 1) body =
  {
    P.name = "synthetic";
    manifest;
    nodes = [ { P.node; name = "t"; body } ];
  }

let rules p =
  List.map (fun (f : Static.Finding.t) -> f.rule) (Static.Verify.check p)

let check_rules what want p =
  Alcotest.(check (list string)) what want (rules p)

let test_rules () =
  let open P in
  check_rules "clean write/fence/read" []
    (prog
       [
         write ~seg:"s" ~off:(c 0) ~len:(c 64) ();
         fence "s";
         read ~seg:"s" ~off:(c 0) ~len:(c 64);
       ]);
  check_rules "constant overrun" [ "static-bounds" ]
    (prog [ read ~seg:"s" ~off:(c 192) ~len:(c 128) ]);
  check_rules "negative offset" [ "static-bounds" ]
    (prog
       [ for_ "i" ~lo:0 ~hi:3 [ read ~seg:"s" ~off:(v "i" * c (-4)) ~len:(c 4) ] ]);
  check_rules "loop-carried overrun" [ "static-bounds" ]
    (prog [ for_ "i" ~lo:0 ~hi:4 [ read ~seg:"s" ~off:(v "i" * c 64) ~len:(c 64) ] ]);
  check_rules "loop in bounds" []
    (prog [ for_ "i" ~lo:0 ~hi:3 [ read ~seg:"s" ~off:(v "i" * c 64) ~len:(c 64) ] ]);
  check_rules "write without the right" [ "static-rights" ]
    (prog
       ~manifest:(one_seg ~rights:Rmem.Rights.read_only ())
       [ write ~seg:"s" ~off:(c 0) ~len:(c 4) () ]);
  check_rules "grant overrides default" []
    (prog
       ~manifest:
         [
           {
             Rmem.Manifest.seg = "s";
             exporter = 0;
             len = 256;
             rights = Rmem.Rights.read_only;
             grants = [ (1, Rmem.Rights.all) ];
             policy = Rmem.Segment.Conditional;
           };
         ]
       [ write ~seg:"s" ~off:(c 0) ~len:(c 4) () ]);
  check_rules "remote local access" [ "static-rights" ]
    (prog [ local_read ~seg:"s" ~off:(c 0) ~len:(c 4) ]);
  check_rules "unknown segment" [ "static-unknown-segment" ]
    (prog [ read ~seg:"ghost" ~off:(c 0) ~len:(c 4) ]);
  check_rules "unbound variable" [ "static-unbound-var" ]
    (prog [ read ~seg:"s" ~off:(v "nowhere") ~len:(c 4) ]);
  check_rules "unfenced release" [ "static-unfenced-release"; "static-lock-leak" ]
    (prog
       [
         cas ~role:P.Acquire "s" ~off:(c 0);
         write ~seg:"s" ~off:(c 64) ~len:(c 4) ();
         cas ~role:P.Release "s" ~off:(c 4);
       ]);
  check_rules "fenced release pairs up" []
    (prog
       [
         cas ~role:P.Acquire "s" ~off:(c 0);
         write ~seg:"s" ~off:(c 64) ~len:(c 4) ();
         fence "s";
         cas ~role:P.Release "s" ~off:(c 0);
       ]);
  check_rules "doorbell overtakes cross-node data" [ "static-unfenced-publish" ]
    (prog
       ~manifest:
         (one_seg ()
         @ [
             {
               Rmem.Manifest.seg = "flag";
               exporter = 2;
               len = 8;
               rights = Rmem.Rights.all;
               grants = [];
               policy = Rmem.Segment.Always;
             };
           ])
       [
         write ~seg:"s" ~off:(c 0) ~len:(c 64) ();
         write ~notify:true ~seg:"flag" ~off:(c 0) ~len:(c 4) ();
       ]);
  check_rules "reply-trusting reissue" [ "static-cas-reissue" ]
    (prog [ retry ~attempts:2 ~verified:false [ cas "s" ~off:(c 0) ] ]);
  check_rules "single-shot unverified wrapper is fine" []
    (prog [ retry ~attempts:1 ~verified:false [ cas "s" ~off:(c 0) ] ]);
  check_rules "blind spin" [ "static-unbounded-retry" ]
    (prog [ retry [ cas "s" ~off:(c 0) ] ]);
  check_rules "spin with observation" []
    (prog
       [
         retry
           [
             read_word ~seg:"s" ~off:(c 0) ~var:"t" ~lo:0 ~hi:7;
             cas "s" ~off:(c 0);
           ];
       ]);
  check_rules "lock leak" [ "static-lock-leak" ]
    (prog [ cas ~role:P.Acquire "s" ~off:(c 0) ]);
  check_rules "unbound in sums and products" [ "static-unbound-var" ]
    (prog
       [
         read ~seg:"s" ~off:(v "nowhere" + c 4) ~len:(c 4);
         read ~seg:"s" ~off:(c 4 * v "elsewhere") ~len:(c 4);
       ]);
  check_rules "CAS at an unbound offset" [ "static-unbound-var" ]
    (prog [ cas "s" ~off:(v "nowhere") ]);
  check_rules "unverified reissue of plain writes" [ "static-unbounded-retry" ]
    (prog [ retry ~verified:false [ write ~seg:"s" ~off:(c 0) ~len:(c 4) () ] ]);
  check_rules "a CAS after a write in a blind spin" [ "static-cas-reissue"; "static-unbounded-retry" ]
    (prog
       [ retry ~verified:false [ write ~seg:"s" ~off:(c 0) ~len:(c 4) (); cas "s" ~off:(c 0) ] ]);
  check_rules "a blind spin around a loop" [ "static-unbounded-retry" ]
    (prog [ retry [ for_ "i" ~lo:0 ~hi:1 [ cas "s" ~off:(c 0) ] ] ])

(* Read_word's declared range feeds the interval analysis — the
   frame_overrun shape in miniature. *)
let test_read_word_range () =
  let open P in
  check_rules "range product overruns" [ "static-bounds" ]
    (prog
       ~manifest:(one_seg ~len:8 ())
       [
         read_word ~seg:"s" ~off:(c 0) ~var:"off" ~lo:0 ~hi:4;
         read ~seg:"s" ~off:(v "off") ~len:(c 8);
       ]);
  check_rules "range in bounds" []
    (prog
       ~manifest:(one_seg ~len:8 ())
       [
         read_word ~seg:"s" ~off:(c 0) ~var:"off" ~lo:0 ~hi:4;
         read ~seg:"s" ~off:(v "off") ~len:(c 4);
       ])

(* ---------------- Catalog expectations ---------------- *)

let test_catalog () =
  let module Pg = Workload.Programs in
  List.iter
    (fun (p : P.t) -> Alcotest.(check (list string)) p.name [] (rules p))
    [
      Pg.kv_store;
      Pg.producer_consumer;
      Pg.file_service;
      Pg.name_service;
      Pg.racy;
      Pg.torn_record;
    ];
  Alcotest.(check (list string)) "file_service_nofence"
    [ "static-unfenced-release" ]
    (rules Pg.file_service_nofence);
  Alcotest.(check (list string)) "cas_missing_release" [ "static-lock-leak" ]
    (rules Pg.cas_missing_release);
  Alcotest.(check (list string)) "cas_double_apply" [ "static-cas-reissue" ]
    (rules Pg.cas_double_apply);
  Alcotest.(check (list string)) "frame_overrun" [ "static-bounds" ]
    (rules Pg.frame_overrun)

(* Zero false positives on the campaign programs the catalog declares. *)
let test_campaigns_clean () =
  List.iter
    (fun (e : Catalog.program) ->
      if e.kind = "campaign" then begin
        let p = e.program in
        Alcotest.(check (list string)) p.name [] (rules p);
        Alcotest.(check string) (p.name ^ " batchable") "batchable"
          (Static.Pipesafe.verdict_to_string (Static.Pipesafe.classify p))
      end)
    Catalog.proto

(* ---------------- Pipelining classifier ---------------- *)

let test_pipesafe () =
  let open P in
  let verdict p = Static.Pipesafe.verdict_to_string (Static.Pipesafe.classify p) in
  Alcotest.(check string) "write/fence/read batchable" "batchable"
    (verdict
       (prog
          [
            write ~seg:"s" ~off:(c 0) ~len:(c 64) ();
            fence "s";
            read ~seg:"s" ~off:(c 0) ~len:(c 64);
          ]));
  Alcotest.(check string) "read of staged write ordered" "ordered"
    (verdict
       (prog
          [
            write ~seg:"s" ~off:(c 0) ~len:(c 64) ();
            read ~seg:"s" ~off:(c 0) ~len:(c 64);
          ]));
  Alcotest.(check string) "cas over staged writes ordered" "ordered"
    (verdict
       (prog
          [ write ~seg:"s" ~off:(c 0) ~len:(c 64) (); cas "s" ~off:(c 128) ]));
  (match
     Static.Pipesafe.classify
       (prog
          [
            write ~seg:"s" ~off:(c 0) ~len:(c 64) ();
            read ~seg:"s" ~off:(c 0) ~len:(c 64);
          ])
   with
  | Static.Pipesafe.Ordered [ reason ] ->
      Alcotest.(check string) "obligation names node and segment"
        "t: reads s while its own write to it is still staged" reason
  | _ -> Alcotest.fail "expected one ordering obligation");
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check string) (p.name ^ " batchable") "batchable" (verdict p))
    (List.filter_map
       (fun (e : Catalog.program) ->
         if e.kind = "bench" then Some e.program else None)
       Catalog.proto)

(* ---------------- Manifest extraction ---------------- *)

let test_manifest_of_segment () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let rmem1 = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed 1) in
  let entry = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let space =
        Cluster.Node.new_address_space (Cluster.Testbed.node testbed 1)
      in
      let segment =
        Rmem.Remote_memory.export rmem1 ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Never
          ~name:"live.seg" ()
      in
      entry :=
        Some
          (Rmem.Manifest.of_segment ~exporter:1 segment));
  match !entry with
  | None -> Alcotest.fail "no manifest entry extracted"
  | Some e ->
      Alcotest.(check string) "name" "live.seg" e.Rmem.Manifest.seg;
      Alcotest.(check int) "extent" 4096 e.Rmem.Manifest.len;
      Alcotest.(check int) "exporter" 1 e.Rmem.Manifest.exporter;
      Alcotest.(check bool) "no grants on a live segment" true
        (e.Rmem.Manifest.grants = []);
      let m = [ { e with Rmem.Manifest.grants = [ (0, Rmem.Rights.all) ] } ] in
      Alcotest.(check (option string)) "default rights"
        (Some "r--")
        (Option.map Rmem.Manifest.rights_to_string
           (Rmem.Manifest.rights_for m ~seg:"live.seg" ~importer:7));
      Alcotest.(check (option string)) "granted rights"
        (Some "rwc")
        (Option.map Rmem.Manifest.rights_to_string
           (Rmem.Manifest.rights_for m ~seg:"live.seg" ~importer:0))

let suite =
  [
    Alcotest.test_case "interval domain" `Quick test_interval;
    Alcotest.test_case "per-rule programs" `Quick test_rules;
    Alcotest.test_case "read_word ranges" `Quick test_read_word_range;
    Alcotest.test_case "catalog expectations" `Quick test_catalog;
    Alcotest.test_case "campaign programs clean" `Quick test_campaigns_clean;
    Alcotest.test_case "pipelining classifier" `Quick test_pipesafe;
    Alcotest.test_case "manifest extraction" `Quick test_manifest_of_segment;
  ]
