(* Tests for the distributed segment name service. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Records ---------------- *)

let record_gen =
  QCheck.Gen.(
    map
      (fun (name, node, seg, gen, size) ->
        Names.Record.make ~name ~node ~segment_id:seg
          ~generation:(Rmem.Generation.of_int gen)
          ~size:(size + 1) ~rights:Rmem.Rights.all)
      (tup5
         (map
            (fun s -> if s = "" then "x" else s)
            (string_size ~gen:(char_range 'a' 'z') (1 -- 32)))
         (0 -- 100) (0 -- 255) (1 -- 0xFFFF) (0 -- 100000)))

let record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:300
    (QCheck.make record_gen) (fun record ->
      match Names.Record.decode (Names.Record.encode record) with
      | Some back -> back = record
      | None -> false)

let record_invalid_slot () =
  Alcotest.(check bool) "invalid decodes to None" true
    (Names.Record.decode (Names.Record.invalid_slot ()) = None)

let record_validation () =
  check_bool "long name rejected" true
    (try
       ignore
         (Names.Record.make ~name:(String.make 40 'a') ~node:0 ~segment_id:0
            ~generation:Rmem.Generation.initial ~size:1 ~rights:Rmem.Rights.all);
       false
     with Invalid_argument _ -> true)

(* ---------------- Registry ---------------- *)

let registry () =
  let space = Cluster.Address_space.create ~asid:9 () in
  Names.Registry.create ~space ~base:0 ~slots:64

let sample_record ?(name = "alpha") ?(gen = 1) () =
  Names.Record.make ~name ~node:1 ~segment_id:4
    ~generation:(Rmem.Generation.of_int gen) ~size:4096 ~rights:Rmem.Rights.all

let registry_insert_lookup_delete () =
  let r = registry () in
  check_bool "miss" true (Names.Registry.lookup r "alpha" = None);
  (match Names.Registry.insert r (sample_record ()) with
  | Ok _ -> ()
  | Error `Full -> Alcotest.fail "not full");
  (match Names.Registry.lookup r "alpha" with
  | Some (record, probes) ->
      Alcotest.(check string) "name" "alpha" record.Names.Record.name;
      check_int "direct hit" 0 probes
  | None -> Alcotest.fail "expected hit");
  check_int "live" 1 (Names.Registry.live r);
  check_bool "deleted" true (Names.Registry.delete r "alpha");
  check_bool "gone" true (Names.Registry.lookup r "alpha" = None);
  check_bool "double delete" false (Names.Registry.delete r "alpha")

let registry_overwrite_same_name () =
  let r = registry () in
  ignore (Names.Registry.insert r (sample_record ~gen:1 ()));
  ignore (Names.Registry.insert r (sample_record ~gen:2 ()));
  check_int "still one live entry" 1 (Names.Registry.live r);
  match Names.Registry.lookup r "alpha" with
  | Some (record, _) ->
      check_int "newest generation" 2
        (Rmem.Generation.to_int record.Names.Record.generation)
  | None -> Alcotest.fail "expected hit"

let registry_collisions_probe =
  QCheck.Test.make ~name:"registry finds all inserted names" ~count:60
    QCheck.(
      list_of_size
        Gen.(1 -- 40)
        (make Gen.(string_size ~gen:(char_range 'a' 'z') (1 -- 12))))
    (fun names ->
      let names = List.sort_uniq compare names in
      let r = registry () in
      List.iter
        (fun name ->
          match Names.Registry.insert r (sample_record ~name ()) with
          | Ok _ -> ()
          | Error `Full -> ())
        names;
      List.for_all
        (fun name ->
          match Names.Registry.lookup r name with
          | Some (record, _) -> String.equal record.Names.Record.name name
          | None -> false)
        names)

let registry_full () =
  let space = Cluster.Address_space.create ~asid:9 () in
  let r = Names.Registry.create ~space ~base:0 ~slots:4 in
  for i = 0 to 3 do
    match Names.Registry.insert r (sample_record ~name:(Printf.sprintf "n%d" i) ()) with
    | Ok _ -> ()
    | Error `Full -> Alcotest.fail "premature full"
  done;
  check_bool "full" true
    (Names.Registry.insert r (sample_record ~name:"overflow" ()) = Error `Full)

(* ---------------- Clerk end-to-end ---------------- *)

let export_import_roundtrip () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:8192
          ~rights:Rmem.Rights.all ~name:"svc" ()
      in
      let desc =
        Names.Api.import
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 "svc"
      in
      check_int "size from record" 8192 (Rmem.Descriptor.size desc);
      (* The descriptor actually works. *)
      Cluster.Address_space.write space ~addr:0 (Bytes.of_string "hi");
      let buf = Rig.buffer0 rig.Rig.d in
      Rmem.Remote_memory.read_wait rig.Rig.d.Rig.rmem0 desc ~soff:0 ~count:2
        ~dst:buf ~doff:0 ();
      check_bool "bytes via named segment" true
        (Bytes.equal (Bytes.of_string "hi")
           (Cluster.Address_space.read rig.Rig.d.Rig.space0 ~addr:0 ~len:2)))

let lookup_not_found () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      check_bool "raises" true
        (try
           ignore
             (Names.Api.import
                ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
                rig.Rig.clerk0 "no-such-name");
           false
         with Names.Clerk.Name_not_found _ -> true))

let lookup_without_hint_needs_cache () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096
          ~name:"hintless" ()
      in
      check_bool "no hint, no cache -> not found" true
        (try
           ignore (Names.Api.import rig.Rig.clerk0 "hintless");
           false
         with Names.Clerk.Name_not_found _ -> true);
      (* After a hinted import it is cached and needs no hint. *)
      let (_ : Rmem.Descriptor.t) =
        Names.Api.import
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 "hintless"
      in
      let (_ : Rmem.Descriptor.t) = Names.Api.import rig.Rig.clerk0 "hintless" in
      ())

let control_transfer_lookup () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"ct" ()
      in
      let desc =
        Names.Api.import_with_control_transfer
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 "ct"
      in
      check_int "found via control transfer" 4096 (Rmem.Descriptor.size desc);
      Alcotest.(check bool) "exporter served a lookup" true
        (Metrics.Account.total_of
           (Names.Clerk.stats rig.Rig.clerk1)
           "lookups served"
        >= 1.))

let refresh_purges_and_marks_stale () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let segment =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"fresh" ()
      in
      let desc =
        Names.Api.import
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 "fresh"
      in
      Names.Api.revoke rig.Rig.clerk1 segment;
      check_bool "cached before refresh" true
        (List.mem "fresh" (Names.Clerk.cached_names rig.Rig.clerk0));
      Names.Clerk.refresh_once rig.Rig.clerk0;
      check_bool "purged" false
        (List.mem "fresh" (Names.Clerk.cached_names rig.Rig.clerk0));
      check_bool "descriptor stale" true (Rmem.Descriptor.is_stale desc))

let refresh_daemon_runs () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let segment =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"daemon" ()
      in
      let desc =
        Names.Api.import
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 "daemon"
      in
      Names.Clerk.start_refresh_daemon rig.Rig.clerk0 ~period:(Sim.Time.ms 5);
      Names.Api.revoke rig.Rig.clerk1 segment;
      Sim.Proc.wait (Sim.Time.ms 12);
      check_bool "daemon marked it stale" true (Rmem.Descriptor.is_stale desc);
      (* Stop the simulation from running the daemon forever. *)
      Sim.Engine.stop rig.Rig.d.Rig.engine)

let probe_then_control_policy () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"ptc" ()
      in
      let hint = Cluster.Node.addr rig.Rig.d.Rig.node1 in
      (* With a 0-probe budget the clerk must immediately fall back to
         the control-transfer path — and still find the name. *)
      Names.Clerk.set_probe_policy rig.Rig.clerk0
        (Names.Clerk.Probe_then_control 0);
      let desc = Names.Api.import ~force:true ~hint rig.Rig.clerk0 "ptc" in
      check_int "found" 4096 (Rmem.Descriptor.size desc);
      let transfers () =
        Metrics.Account.total_of
          (Names.Clerk.stats rig.Rig.clerk0)
          "control-transfer lookups"
      in
      Alcotest.(check bool) "used control transfer" true (transfers () >= 1.);
      (* A control-transfer import puts back the policy it found: the
         next forced import still falls back at once. *)
      let (_ : Rmem.Descriptor.t) =
        Names.Api.import_with_control_transfer ~hint rig.Rig.clerk0 "ptc"
      in
      let before = transfers () in
      let (_ : Rmem.Descriptor.t) =
        Names.Api.import ~force:true ~hint rig.Rig.clerk0 "ptc"
      in
      Alcotest.(check bool) "policy kept across a control-transfer import"
        true
        (transfers () > before);
      (* With a large budget it resolves by probing alone. *)
      let served_before =
        Metrics.Account.total_of
          (Names.Clerk.stats rig.Rig.clerk1)
          "lookups served"
      in
      Names.Clerk.set_probe_policy rig.Rig.clerk0
        (Names.Clerk.Probe_then_control 32);
      let (_ : Rmem.Descriptor.t) =
        Names.Api.import ~force:true ~hint rig.Rig.clerk0 "ptc"
      in
      Alcotest.(check (float 0.01)) "no extra control transfer" served_before
        (Metrics.Account.total_of
           (Names.Clerk.stats rig.Rig.clerk1)
           "lookups served"))

let control_transfer_absent_name () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let hint = Cluster.Node.addr rig.Rig.d.Rig.node1 in
      check_bool "absent name raises through control transfer" true
        (try
           ignore
             (Names.Api.import_with_control_transfer ~hint rig.Rig.clerk0
                "ghost");
           false
         with Names.Clerk.Name_not_found _ -> true))

let reexport_bumps_generation () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let hint = Cluster.Node.addr rig.Rig.d.Rig.node1 in
      let segment =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"re" ()
      in
      let d1 = Names.Api.import ~hint rig.Rig.clerk0 "re" in
      Names.Api.revoke rig.Rig.clerk1 segment;
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"re" ()
      in
      let d2 = Names.Api.import ~force:true ~hint rig.Rig.clerk0 "re" in
      check_bool "new generation differs" false
        (Rmem.Generation.equal (Rmem.Descriptor.generation d1)
           (Rmem.Descriptor.generation d2)))

let registry_well_formed () =
  let space = Cluster.Address_space.create ~asid:9 () in
  let r = Names.Registry.create ~space ~base:0 ~slots:8 in
  check_bool "fresh table" true (Names.Registry.well_formed r);
  ignore (Names.Registry.insert r (sample_record ~name:"alpha" ()));
  ignore (Names.Registry.insert r (sample_record ~name:"beta" ()));
  check_bool "after inserts" true (Names.Registry.well_formed r);
  check_bool "deleted" true (Names.Registry.delete r "beta");
  check_bool "orphans after deletion tolerated" true
    (Names.Registry.well_formed r);
  (* Tear every slot's valid flag behind the registry's back: the live
     counter now exceeds the decodable records. *)
  for index = 0 to 7 do
    Cluster.Address_space.write_word space
      ~addr:(index * Names.Record.slot_bytes)
      0
  done;
  check_bool "torn table detected" false (Names.Registry.well_formed r)

let suite =
  [
    Alcotest.test_case "record invalid slot" `Quick record_invalid_slot;
    Alcotest.test_case "registry well-formedness" `Quick registry_well_formed;
    Alcotest.test_case "record validation" `Quick record_validation;
    Alcotest.test_case "registry insert/lookup/delete" `Quick
      registry_insert_lookup_delete;
    Alcotest.test_case "registry overwrite same name" `Quick
      registry_overwrite_same_name;
    Alcotest.test_case "registry full" `Quick registry_full;
    Alcotest.test_case "export/import end to end" `Quick export_import_roundtrip;
    Alcotest.test_case "lookup not found" `Quick lookup_not_found;
    Alcotest.test_case "hintless lookup needs cache" `Quick
      lookup_without_hint_needs_cache;
    Alcotest.test_case "control-transfer lookup" `Quick control_transfer_lookup;
    Alcotest.test_case "refresh purges and marks stale" `Quick
      refresh_purges_and_marks_stale;
    Alcotest.test_case "refresh daemon" `Quick refresh_daemon_runs;
    Alcotest.test_case "re-export bumps generation" `Quick
      reexport_bumps_generation;
    Alcotest.test_case "probe-then-control policy" `Quick
      probe_then_control_policy;
    Alcotest.test_case "control transfer on absent name" `Quick
      control_transfer_absent_name;
    QCheck_alcotest.to_alcotest record_roundtrip;
    QCheck_alcotest.to_alcotest registry_collisions_probe;
  ]
