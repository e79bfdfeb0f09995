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

(* The image [slot] at address 64 of a fresh space. *)
let slot_space slot =
  let space = Cluster.Address_space.create ~asid:11 () in
  Cluster.Address_space.write space ~addr:64 slot;
  space

let record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode roundtrip" ~count:300
    (QCheck.make record_gen) (fun record ->
      match
        Names.Record.decode_at (slot_space (Names.Record.encode record)) ~addr:64
      with
      | Some back -> back = record
      | None -> false)

(* A copying decoder of a slot image: the reference the in-place
   readers are checked against. *)
let decode slot =
  if Int32.to_int (Bytes.get_int32_le slot 0) <> 1 then None
  else
    let raw_name = Bytes.sub_string slot 8 32 in
    let name =
      match String.index_opt raw_name '\000' with
      | Some i -> String.sub raw_name 0 i
      | None -> raw_name
    in
    let field off = Int32.to_int (Bytes.get_int32_le slot off) in
    Some
      (Names.Record.make ~name ~node:(field 40) ~segment_id:(field 44)
         ~generation:(Rmem.Generation.of_int (field 48)) ~size:(field 52)
         ~rights:(Rmem.Rights.of_code (field 56)))

(* [holds_at] and [body_at] read the slot in place and must say what
   [decode] followed by [String.equal] says, for any query: the stored
   name, a prefix or extension of it, one over 32 bytes, one holding a
   NUL, and a slot with garbage after the name's terminator. *)
let record_lookup_in_place =
  let query =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:(char_range 'a' 'c') (0 -- 34);
          string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (0 -- 34);
        ])
  in
  QCheck.Test.make ~name:"record lookup in place agrees with decode" ~count:500
    (QCheck.make
       QCheck.Gen.(tup4 record_gen query (0 -- 4) (int_bound 255)))
    (fun (record, query, how, garbage) ->
      let slot = Names.Record.encode record in
      let stored = record.Names.Record.name in
      let query =
        match how with
        | 0 -> stored
        | 1 -> String.sub stored 0 (String.length stored / 2)
        | 2 -> stored ^ "a"
        | 3 -> stored ^ "\000"
        | _ -> query
      in
      if String.length stored < 31 then
        Bytes.set slot (8 + String.length stored + 1) (Char.chr garbage);
      let space = slot_space slot in
      let expected =
        match decode slot with
        | Some r when String.equal r.Names.Record.name query -> Some r
        | Some _ | None -> None
      in
      let in_place =
        if Names.Record.holds_at space ~addr:64 query then
          Some (Names.Record.body_at space ~addr:64 query)
        else None
      in
      in_place = expected)

let record_invalid_slot () =
  Alcotest.(check bool) "invalid decodes to None" true
    (Names.Record.decode_at
       (slot_space (Bytes.make Names.Record.slot_bytes '\000'))
       ~addr:64
    = None)

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
  check_bool "deleted" true (Names.Registry.delete r "alpha" <> None);
  check_bool "gone" true (Names.Registry.lookup r "alpha" = None);
  check_bool "double delete" false (Names.Registry.delete r "alpha" <> None)

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

(* Two names whose first probe lands on the same slot of a [slots]-slot
   registry, so the second is inserted one slot past the first. *)
let colliding ~slots =
  let name i = Printf.sprintf "n%03d" i in
  let home i = Names.Record.fnv_hash (name i) land (slots - 1) in
  let rec find j = if home j = home 0 then (name 0, name j) else find (j + 1) in
  find 1

(* Deleting the first of two colliding names leaves a tombstone the
   second's chain runs past: the second stays findable, and re-inserting
   it overwrites it in place instead of making a second copy. *)
let registry_delete_keeps_colliders () =
  let space = Cluster.Address_space.create ~asid:9 () in
  let r = Names.Registry.create ~space ~base:0 ~slots:8 in
  let first, second = colliding ~slots:8 in
  ignore (Names.Registry.insert r (sample_record ~name:first ()));
  ignore (Names.Registry.insert r (sample_record ~name:second ()));
  check_bool "first deleted" true (Names.Registry.delete r first <> None);
  check_bool "second found past the tombstone" true
    (Names.Registry.lookup r second <> None);
  check_int "live" 1 (Names.Registry.live r);
  check_bool "well-formed" true (Names.Registry.well_formed r);
  ignore (Names.Registry.insert r (sample_record ~name:second ~gen:2 ()));
  let copies = ref 0 in
  Names.Registry.iter r (fun _ record ->
      if String.equal record.Names.Record.name second then incr copies);
  check_int "one copy after re-insert" 1 !copies;
  check_int "live after re-insert" 1 (Names.Registry.live r);
  check_bool "well-formed after re-insert" true (Names.Registry.well_formed r)

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

(* Control transfers on [node]'s event stream: request WRITEs with
   notification it issues, and the ones it serves. *)
let control_transfers node =
  let issued = ref 0 and served = ref 0 in
  Cluster.Node.subscribe node (function
    | Rmem.Remote_memory.Issued { op = Rmem.Rights.Write_op; notify = true; _ } ->
        incr issued
    | Rmem.Remote_memory.Served { op = Rmem.Rights.Write_op; notified = true; _ } ->
        incr served
    | _ -> ());
  (issued, served)

let control_transfer_lookup () =
  let rig = Rig.named_duo () in
  let _, served = control_transfers rig.Rig.d.Rig.node1 in
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
      Alcotest.(check bool) "exporter served a lookup" true (!served >= 1))

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
      (* Cached, a revoked name still imports; purged, it is looked up
         at its home again and is gone. *)
      let imports () =
        match
          Names.Api.import
            ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
            rig.Rig.clerk0 "fresh"
        with
        | (_ : Rmem.Descriptor.t) -> true
        | exception Names.Clerk.Name_not_found _ -> false
      in
      check_bool "cached before refresh" true (imports ());
      Names.Clerk.refresh_once rig.Rig.clerk0;
      check_bool "purged" false (imports ());
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

(* The two lookup paths, one after the other: a control-transfer import
   finds the name by asking the exporter's clerk, and a probing import
   after it resolves by remote READs alone, without another control
   transfer. *)
let probe_then_control_policy () =
  let rig = Rig.named_duo () in
  let issued, _ = control_transfers rig.Rig.d.Rig.node0 in
  let _, served = control_transfers rig.Rig.d.Rig.node1 in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:"ptc" ()
      in
      let hint = Cluster.Node.addr rig.Rig.d.Rig.node1 in
      let desc =
        Names.Api.import_with_control_transfer ~hint rig.Rig.clerk0 "ptc"
      in
      check_int "found" 4096 (Rmem.Descriptor.size desc);
      Alcotest.(check bool) "used control transfer" true (!issued >= 1);
      let transfers_before = !issued and served_before = !served in
      let (_ : Rmem.Descriptor.t) =
        Names.Api.import ~force:true ~hint rig.Rig.clerk0 "ptc"
      in
      check_int "probing import transfers no control" transfers_before !issued;
      check_int "no extra control transfer" served_before !served)

(* A second clerk's remote lookup walks past the slot its exporter's
   DELETENAME tombstoned to the colliding name behind it. *)
let remote_lookup_past_deleted_slot () =
  let rig = Rig.named_duo () in
  Rig.run rig.Rig.d (fun () ->
      let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
      let slots = Names.Registry.slots (Names.Clerk.registry rig.Rig.clerk1) in
      let first, second = colliding ~slots in
      let gone =
        Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:4096 ~name:first ()
      in
      let kept =
        Names.Api.export rig.Rig.clerk1 ~space ~base:4096 ~len:4096
          ~name:second ()
      in
      Names.Api.revoke rig.Rig.clerk1 gone;
      let desc =
        Names.Api.import
          ~hint:(Cluster.Node.addr rig.Rig.d.Rig.node1)
          rig.Rig.clerk0 second
      in
      check_int "found past the deleted slot" (Rmem.Segment.id kept)
        (Rmem.Descriptor.segment_id desc))

(* The per-node clerk's remote walk skips a moved slot, here a shard
   migration's forwarding tombstone, written into node 1's well-known
   registry, which is built by hand so the test can write it. *)
let remote_lookup_past_moved_slot () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let clerk0 = Names.Clerk.create d.Rig.rmem0 in
      let slots = Names.Bootstrap.default_slots in
      let registry = Names.Registry.create ~space:d.Rig.space1 ~base:0 ~slots in
      let (_ : Rmem.Segment.t) =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0
          ~len:(Names.Registry.segment_bytes ~slots)
          ~id:Names.Bootstrap.registry_segment_id
          ~rights:(Rmem.Rights.make ~read:true ~write:true ())
          ~name:"wk:registry" ()
      in
      let first, second = colliding ~slots in
      let index =
        match Names.Registry.insert registry (sample_record ~name:first ()) with
        | Ok index -> index
        | Error `Full -> Alcotest.fail "registry full"
      in
      ignore (Names.Registry.insert registry (sample_record ~name:second ()));
      Cluster.Address_space.write d.Rig.space1
        ~addr:(index * Names.Record.slot_bytes)
        (Names.Record.encode_forward
           {
             Names.Record.fwd_epoch = 1;
             fwd_lo = 0;
             fwd_hi = 7;
             fwd_node = 1;
             fwd_segment_id = 9;
             fwd_generation = Rmem.Generation.initial;
             fwd_slots = 8;
           });
      let record =
        Names.Clerk.lookup ~hint:(Cluster.Node.addr d.Rig.node1) clerk0 second
      in
      Alcotest.(check string) "found past the moved slot" second
        record.Names.Record.name)

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
  check_bool "deleted" true (Names.Registry.delete r "beta" <> None);
  check_bool "after deletion" true (Names.Registry.well_formed r);
  (* Tear every slot's valid flag behind the registry's back: the live
     counter now exceeds the decodable records. *)
  for index = 0 to 7 do
    Cluster.Address_space.write_word space
      ~addr:(index * Names.Record.slot_bytes)
      0
  done;
  check_bool "torn table detected" false (Names.Registry.well_formed r)

(* The owner's lookup of one of its own names: the walk reads each slot
   in place and allocates its [Found], the hit and the record (which
   shares the caller's name string), and the lookup the pair and option
   it returns. *)
let registry_lookup_budget () =
  let r = registry () in
  List.iter
    (fun name -> ignore (Names.Registry.insert r (sample_record ~name ())))
    [ "alpha"; "beta"; "gamma"; "delta" ];
  let words =
    Rig.words_per_op ~n:1000 (fun () ->
        ignore (Names.Registry.lookup r "gamma" : (Names.Record.t * int) option))
  in
  check_bool "still found" true (Names.Registry.lookup r "gamma" <> None);
  Rig.within_budget "local Registry.lookup" ~words ~budget:19.8

(* A lookup forced past the import cache to the exporter's registry:
   one slot READ into the clerk's probe buffer, the walk's outcome and
   the record, the READ's park, the cache entry's option, and the
   caller's [Some hint]: 21 words, 23 with the READ's trap charged by
   the caller's own wait, 33 with a process switch per frame served or
   delivered. *)
let forced_remote_lookup_budget () =
  let rig = Rig.named_duo () in
  let words =
    Rig.run rig.Rig.d (fun () ->
        let space = Cluster.Node.new_address_space rig.Rig.d.Rig.node1 in
        let (_ : Rmem.Segment.t) =
          Names.Api.export rig.Rig.clerk1 ~space ~base:0 ~len:8192
            ~rights:Rmem.Rights.all ~name:"svc" ()
        in
        let hint = Cluster.Node.addr rig.Rig.d.Rig.node1 in
        Rig.words_per_op ~n:200 (fun () ->
            ignore
              (Names.Clerk.lookup ~force:true ~hint rig.Rig.clerk0 "svc"
                : Names.Record.t)))
  in
  Rig.within_budget "forced remote Clerk.lookup" ~words ~budget:23.3

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
    Alcotest.test_case "registry delete keeps colliding names" `Quick
      registry_delete_keeps_colliders;
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
    Alcotest.test_case "remote lookup past a deleted slot" `Quick
      remote_lookup_past_deleted_slot;
    Alcotest.test_case "remote lookup past a moved slot" `Quick
      remote_lookup_past_moved_slot;
    Alcotest.test_case "registry local lookup allocation budget" `Quick
      registry_lookup_budget;
    Alcotest.test_case "forced remote lookup allocation budget" `Quick
      forced_remote_lookup_budget;
    QCheck_alcotest.to_alcotest record_roundtrip;
    QCheck_alcotest.to_alcotest record_lookup_in_place;
    QCheck_alcotest.to_alcotest registry_collisions_probe;
  ]
