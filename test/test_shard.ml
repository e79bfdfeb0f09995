(* The scale-out fabric and the sharded name service. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* ---------------- Fabric: Clos / fat-tree routing ---------------- *)

(* Cross-fabric remote memory: every (src, dst) pair on a small Clos
   must deliver — multi-hop forwarding, deterministic routes, no
   drops. *)
let test_clos_delivers () =
  let topology = Atm.Network.Clos { spines = 2; leaves = 3; hosts_per_leaf = 2 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:6 () in
  let rmems =
    Array.init 6 (fun i -> Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      Array.iteri
        (fun j _ ->
          let dst_node = Cluster.Testbed.node testbed j in
          let space = Cluster.Node.new_address_space dst_node in
          let seg =
            Rmem.Remote_memory.export rmems.(j) ~space ~base:0 ~len:4096
              ~rights:Rmem.Rights.all
              ~name:(Printf.sprintf "clos.%d" j)
              ()
          in
          Array.iteri
            (fun i _ ->
              if i <> j then begin
                let desc =
                  Rmem.Remote_memory.import rmems.(i)
                    ~remote:(Cluster.Node.addr dst_node)
                    ~segment_id:(Rmem.Segment.id seg)
                    ~generation:(Rmem.Segment.generation seg)
                    ~size:4096 ~rights:Rmem.Rights.all ()
                in
                let payload =
                  Bytes.of_string (Printf.sprintf "hop %d->%d" i j)
                in
                Rmem.Remote_memory.write rmems.(i) desc ~off:(i * 64) payload;
                Rmem.Remote_memory.fence rmems.(i) desc;
                let got =
                  Cluster.Address_space.read space ~addr:(i * 64)
                    ~len:(Bytes.length payload)
                in
                checkb (Printf.sprintf "%d->%d delivered" i j) true
                  (Bytes.equal got payload)
              end)
            rmems)
        rmems);
  let net = Cluster.Testbed.network testbed in
  let switches = Atm.Network.switches net in
  check Alcotest.int "leaves + spines" 5 (List.length switches);
  List.iteri
    (fun i s ->
      check Alcotest.int (Printf.sprintf "switch %d clean" i) 0 (Atm.Switch.drops s))
    switches

let test_fat_tree_delivers () =
  let topology = Atm.Network.Fat_tree { k = 4 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:16 () in
  let src = 0 and dst = 15 (* opposite pods: the full 5-hop path *) in
  let rmem_src = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed src) in
  let rmem_dst = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed dst) in
  Cluster.Testbed.run testbed (fun () ->
      let dst_node = Cluster.Testbed.node testbed dst in
      let space = Cluster.Node.new_address_space dst_node in
      let seg =
        Rmem.Remote_memory.export rmem_dst ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"ft" ()
      in
      let desc =
        Rmem.Remote_memory.import rmem_src
          ~remote:(Cluster.Node.addr dst_node)
          ~segment_id:(Rmem.Segment.id seg)
          ~generation:(Rmem.Segment.generation seg)
          ~size:4096 ~rights:Rmem.Rights.all ()
      in
      let payload = Bytes.of_string "across the core" in
      Rmem.Remote_memory.write rmem_src desc ~off:0 payload;
      Rmem.Remote_memory.fence rmem_src desc;
      checkb "payload crossed the core" true
        (Bytes.equal payload
           (Cluster.Address_space.read space ~addr:0 ~len:(Bytes.length payload))));
  let switches = Atm.Network.switches (Cluster.Testbed.network testbed) in
  check Alcotest.int "4 pods x (2+2) + 4 cores" 20 (List.length switches);
  List.iter
    (fun s -> check Alcotest.int "no switch drops" 0 (Atm.Switch.drops s))
    switches

(* A frame for a host that exists in no route table drops at the switch
   with a counter, never an exception. *)
let test_unknown_destination_drops () =
  let topology = Atm.Network.Clos { spines = 1; leaves = 2; hosts_per_leaf = 2 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:4 () in
  let rmem0 = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed 0) in
  Cluster.Testbed.run testbed (fun () ->
      let desc =
        Rmem.Remote_memory.import rmem0 ~remote:(Atm.Addr.of_int 9)
          ~segment_id:7 ~generation:(Rmem.Generation.of_int 1) ~size:64
          ~rights:Rmem.Rights.all ()
      in
      Rmem.Remote_memory.write rmem0 desc ~off:0 (Bytes.make 8 'x'));
  let dropped =
    List.fold_left
      (fun acc s -> acc + Atm.Switch.drops s)
      0
      (Atm.Network.switches (Cluster.Testbed.network testbed))
  in
  checkb "dropped at a switch" true (dropped > 0)

(* 200+ nodes: the Clos fabric's linear link count keeps construction
   and a cross-fabric round trip tractable. *)
let test_scale_200_nodes () =
  let nodes = 256 in
  let topology =
    Atm.Network.Clos { spines = 4; leaves = 16; hosts_per_leaf = 16 }
  in
  let testbed = Cluster.Testbed.create ~topology ~nodes () in
  check Alcotest.int "size" nodes (List.length (Cluster.Testbed.nodes testbed));
  for i = 0 to nodes - 1 do
    if Atm.Addr.to_int (Cluster.Node.addr (Cluster.Testbed.node testbed i)) <> i then
      Alcotest.failf "node %d has the wrong address" i
  done;
  (* Links grow linearly (hosts + 2 * leaves * spines trunks), not like
     the mesh's n^2. *)
  let links = Atm.Network.links (Cluster.Testbed.network testbed) in
  check Alcotest.int "link count" ((2 * nodes) + (2 * 16 * 4))
    (List.length links);
  let rmem_a = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed 3) in
  let rmem_b = Rmem.Remote_memory.attach (Cluster.Testbed.node testbed 251) in
  Cluster.Testbed.run testbed (fun () ->
      let owner = Cluster.Testbed.node testbed 251 in
      let space = Cluster.Node.new_address_space owner in
      let seg =
        Rmem.Remote_memory.export rmem_b ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"far" ()
      in
      let desc =
        Rmem.Remote_memory.import rmem_a
          ~remote:(Cluster.Node.addr owner)
          ~segment_id:(Rmem.Segment.id seg)
          ~generation:(Rmem.Segment.generation seg)
          ~size:4096 ~rights:Rmem.Rights.all ()
      in
      Rmem.Remote_memory.write rmem_a desc ~off:0 (Bytes.of_string "edge to edge");
      Rmem.Remote_memory.fence rmem_a desc;
      checkb "delivered across 16 leaves" true
        (Bytes.equal
           (Bytes.of_string "edge to edge")
           (Cluster.Address_space.read space ~addr:0 ~len:12)))

(* ---------------- Shard map: partition totality ---------------- *)

let map_entry ~lo ~hi =
  {
    Names.Shardmap.lo;
    hi;
    node = 2 + (lo land 1);
    segment_id = 3 + (lo land 7);
    generation = Rmem.Generation.of_int (1 + (hi mod 5));
    slots = 64;
  }

(* Any ascending set of cut points partitions the bucket space into a
   total map. *)
let entries_of_cuts cuts =
  let cuts =
    List.sort_uniq compare
      (List.filter (fun c -> c >= 0 && c < Names.Shardmap.buckets - 1) cuts)
  in
  let rec go lo = function
    | [] -> [ map_entry ~lo ~hi:(Names.Shardmap.buckets - 1) ]
    | c :: rest -> map_entry ~lo ~hi:c :: go (c + 1) rest
  in
  go 0 cuts

let qcheck_partition_totality =
  QCheck.Test.make
    ~name:"shard map: cut-point partitions are total and round-trip"
    ~count:200
    QCheck.(list_of_size Gen.(0 -- 12) (int_bound (Names.Shardmap.buckets - 2)))
    (fun cuts ->
      let entries = entries_of_cuts cuts in
      let m = { Names.Shardmap.epoch = 7; entries } in
      Names.Shardmap.total entries
      && (match Names.Shardmap.decode (Names.Shardmap.encode m) with
         | Some m' -> m' = m
         | None -> false)
      && List.for_all
           (fun b ->
             match Names.Shardmap.owner m b with
             | Some e -> e.Names.Shardmap.lo <= b && b <= e.Names.Shardmap.hi
             | None -> false)
           [ 0; 1; 42; 32767; 32768; Names.Shardmap.buckets - 1 ])

let test_shardmap_rejects_torn () =
  let m =
    { Names.Shardmap.epoch = 3; entries = entries_of_cuts [ 100; 5000 ] }
  in
  let image = Names.Shardmap.encode m in
  (* Epoch zero = the doorbell has not rung: unreadable. *)
  let torn = Bytes.copy image in
  Bytes.set_int32_le torn 0 0l;
  checkb "epoch 0 rejected" true (Names.Shardmap.decode torn = None);
  (* A corrupt entry count tears the ranges. *)
  let torn = Bytes.copy image in
  Bytes.set_int32_le torn 4 2l;
  checkb "short count rejected" true (Names.Shardmap.decode torn = None);
  checkb "intact accepted" true (Names.Shardmap.decode image <> None);
  checkb "short image rejected" true
    (Names.Shardmap.decode (Bytes.sub image 0 Names.Shardmap.header_bytes) = None);
  checkb "a bucket no entry covers has no owner" true
    (Names.Shardmap.owner { Names.Shardmap.epoch = 1; entries = [] } 0 = None)

(* ---------------- Registry: moved tombstones keep chains ------------ *)

let test_tombstone_keeps_chains () =
  let space = Cluster.Address_space.create ~asid:99 () in
  let reg = Names.Registry.create ~space ~base:0 ~slots:8 in
  (* Two names whose first probe collides. *)
  let collides a b =
    Names.Record.fnv_hash a land 7 = Names.Record.fnv_hash b land 7
  in
  let name_of i = Printf.sprintf "c%d" i in
  let a, b =
    let rec find i =
      let rec inner j =
        if j > 500 then find (i + 1)
        else if collides (name_of i) (name_of j) then (name_of i, name_of j)
        else inner (j + 1)
      in
      inner (i + 1)
    in
    find 0
  in
  let record name =
    Names.Record.make ~name ~node:1 ~segment_id:7
      ~generation:(Rmem.Generation.of_int 1) ~size:64
      ~rights:Rmem.Rights.read_only
  in
  checkb "a inserted" true (Names.Registry.insert reg (record a) = Ok (Names.Record.fnv_hash a land 7));
  (match Names.Registry.insert reg (record b) with
  | Ok _ -> ()
  | Error `Full -> Alcotest.fail "b insert");
  (* Tombstone the chain head: the collider must stay reachable. *)
  checkb "tombstoned" true (Names.Registry.delete reg a <> None);
  checkb "a gone" true (Names.Registry.lookup reg a = None);
  checkb "b survives past the tombstone" true
    (match Names.Registry.lookup reg b with
    | Some (r, _) -> String.equal r.Names.Record.name b
    | None -> false);
  check Alcotest.int "live" 1 (Names.Registry.live reg);
  checkb "well-formed" true (Names.Registry.well_formed reg);
  (* Reinsert reuses the tombstone slot without breaking the chain. *)
  (match Names.Registry.insert reg (record a) with
  | Ok index -> check Alcotest.int "slot reused" (Names.Record.fnv_hash a land 7) index
  | Error `Full -> Alcotest.fail "reinsert");
  checkb "both live again" true
    (Names.Registry.lookup reg a <> None && Names.Registry.lookup reg b <> None)

(* ---------------- Sharded name service, end to end ------------------ *)

(* Roles on a 6-node Clos: 0 = map host, 1 = reconciler, 2-3 = shard
   hosts, 4-5 = clients. *)
let sharded_rig ?policy ?(slots = 64) () =
  let topology = Atm.Network.Clos { spines = 2; leaves = 3; hosts_per_leaf = 2 } in
  let testbed = Cluster.Testbed.create ~topology ~nodes:6 () in
  let rmems =
    Array.init 6 (fun i -> Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let setup () =
    let clerks = Array.init 6 (fun i -> Names.Clerk.create rmems.(i)) in
    let reconciler =
      Names.Reconciler.create ~slots ~max_clients:6 ?policy
        ~map_clerk:clerks.(0)
        ~hosts:[| clerks.(2); clerks.(3) |]
        clerks.(1)
    in
    Names.Reconciler.serve_registrations reconciler;
    let shard_clerk i =
      Names.Shard_clerk.create ~map_hint:(Atm.Addr.of_int 0)
        ~reconciler_hint:(Atm.Addr.of_int 1) clerks.(i)
    in
    (clerks, reconciler, shard_clerk 4, shard_clerk 5)
  in
  (testbed, setup)

let svc_name i = Printf.sprintf "svc.%04d" i

let svc_record i =
  Names.Record.make ~name:(svc_name i) ~node:(2 + (i mod 2))
    ~segment_id:(100 + i) ~generation:(Rmem.Generation.of_int 1) ~size:4096
    ~rights:Rmem.Rights.read_only

let test_sharded_register_lookup () =
  let testbed, setup = sharded_rig () in
  (* The map host (node 0) runs no other service: every notification
     delivered there is an epoch doorbell. *)
  let doorbells = ref 0 in
  Cluster.Node.subscribe (Cluster.Testbed.node testbed 0) (function
    | Rmem.Notification.Delivered _ -> incr doorbells
    | _ -> ());
  Cluster.Testbed.run testbed (fun () ->
      let _, reconciler, sc4, sc5 = setup () in
      for i = 0 to 39 do
        Names.Shard_clerk.register (if i mod 2 = 0 then sc4 else sc5) (svc_record i)
      done;
      (* Every name resolves, with its coordinates, from either client. *)
      for i = 0 to 39 do
        let r = Names.Shard_clerk.lookup sc5 (svc_name i) in
        check Alcotest.int "segment id" (100 + i) r.Names.Record.segment_id;
        check Alcotest.int "node" (2 + (i mod 2)) r.Names.Record.node
      done;
      checkb "absent name raises under a current epoch" true
        (match Names.Shard_clerk.lookup sc4 "no.such.name" with
        | exception Names.Clerk.Name_not_found _ -> true
        | _ -> false);
      check Alcotest.int "no lost registrations" 40
        (Names.Reconciler.live reconciler);
      checkb "mirrors well-formed" true (Names.Reconciler.well_formed reconciler);
      check Alcotest.int "single publish so far" 1
        (Names.Reconciler.epoch reconciler);
      checkb "doorbell consumed at map host" true (!doorbells >= 1));
  (* The whole campaign rode the fabric without a drop. *)
  List.iter
    (fun s -> check Alcotest.int "no switch drops" 0 (Atm.Switch.drops s))
    (Atm.Network.switches (Cluster.Testbed.network testbed))

(* A shard with no free slot refuses a registration: the reconciler
   answers with an empty reply, and the clerk raises. *)
let test_register_refused () =
  let testbed, setup = sharded_rig ~slots:4 () in
  Cluster.Testbed.run testbed (fun () ->
      let _, reconciler, sc4, _ = setup () in
      for i = 0 to 3 do
        Names.Shard_clerk.register sc4 (svc_record i)
      done;
      check Alcotest.int "the shard is full" 4 (Names.Reconciler.live reconciler);
      checkb "a fifth registration is refused" true
        (match Names.Shard_clerk.register sc4 (svc_record 4) with
        | () -> false
        | exception Failure msg ->
            String.equal msg "shard clerk: registration refused (shard full)"))

(* The host words of one shard lookup hit under a current map, 15.13:
   the slot READ's own 2.13 (its park; 4.13 with its trap charged by the
   caller's own wait, 14.13 with a process switch per frame served or
   delivered), the walk's [Found] (4), the
   classify's [Hit] (2) and the record (7), which shares the caller's
   name string and the decoded rights.  Nothing else: the name is
   hashed in a loop, the owner found by position, the shard's reader
   (its descriptor and top-level slot function) found by an int key,
   and the walk and its rounds are top-level functions.  10% above the
   figure; 84.13 words with a closure per walk, per round and per hash,
   a key tuple and two options per lookup. *)
let test_lookup_hit_budget () =
  let testbed, setup = sharded_rig () in
  let words =
    Cluster.Testbed.run testbed (fun () ->
        let _, _, sc4, sc5 = setup () in
        for i = 0 to 7 do
          Names.Shard_clerk.register sc4 (svc_record i)
        done;
        let name = svc_name 3 in
        let words =
          Rig.words_per_op ~n:200 (fun () ->
              ignore (Names.Shard_clerk.lookup sc5 name : Names.Record.t))
        in
        check Alcotest.int "still the record"
          103 (Names.Shard_clerk.lookup sc5 name).Names.Record.segment_id;
        words)
  in
  Rig.within_budget "shard lookup hit" ~words ~budget:16.7

(* The host words of one shard lookup miss under a current map: the
   walk's two slot READs (its chain passes one live slot before the
   free one that ends it), its outcome, the 4-byte READ of the map's
   epoch word that confirms the miss, and the exception that reports
   it: 16.13 words, 2 less for each READ than with its trap charged by
   the caller's own wait, and 12 less than with a process switch per
   frame served or delivered too. *)
let test_lookup_miss_budget () =
  let testbed, setup = sharded_rig () in
  let words =
    Cluster.Testbed.run testbed (fun () ->
        let _, _, sc4, sc5 = setup () in
        for i = 0 to 7 do
          Names.Shard_clerk.register sc4 (svc_record i)
        done;
        let miss () =
          match Names.Shard_clerk.lookup sc5 "no.such.name" with
          | _ -> Alcotest.fail "absent name found"
          | exception Names.Clerk.Name_not_found _ -> ()
        in
        let reads () =
          Metrics.Account.total_of (Names.Shard_clerk.stats sc5) "remote probes"
        in
        let before = reads () in
        miss ();
        check (Alcotest.float 0.) "two probes" 2. (reads () -. before);
        Rig.words_per_op ~n:200 miss)
  in
  Rig.within_budget "shard lookup miss" ~words ~budget:17.8

(* A rebalance in the middle of a client's cached-epoch window: the
   client heals through the forwarding tombstone — a local map patch,
   no refetch from the map host — and a merge (which revokes the
   absorbed segment) heals through the stale-descriptor refetch path. *)
let test_stale_epoch_heal () =
  let testbed, setup = sharded_rig () in
  Cluster.Testbed.run testbed (fun () ->
      let _, reconciler, sc4, sc5 = setup () in
      for i = 0 to 39 do
        Names.Shard_clerk.register sc4 (svc_record i)
      done;
      (* Before its first lookup client 5 holds no map: it has no
         epoch and no load to report. *)
      check Alcotest.int "no epoch before a map" 0 (Names.Shard_clerk.epoch sc5);
      Names.Shard_clerk.report_load sc5;
      (* Warm client 5's map cache at epoch 1. *)
      ignore (Names.Shard_clerk.lookup sc5 (svc_name 0) : Names.Record.t);
      check Alcotest.int "cached epoch" 1 (Names.Shard_clerk.epoch sc5);
      let moved_i, stayed_i =
        let bucket i = Names.Shardmap.bucket_of_name (svc_name i) in
        let find p =
          let rec go i = if p (bucket i) then i else go (i + 1) in
          go 0
        in
        (find (fun b -> b > 32767), find (fun b -> b <= 32767))
      in
      (* Mid-campaign rebalance: split the only shard at its midpoint. *)
      (match Names.Reconciler.split reconciler 0 with
      | Some (_ : int) -> ()
      | None -> Alcotest.fail "split refused");
      check Alcotest.int "two shards" 2 (Names.Reconciler.shard_count reconciler);
      let owner i =
        match
          Names.Shardmap.owner (Names.Reconciler.map reconciler)
            (Names.Shardmap.bucket_of_name (svc_name i))
        with
        | Some e -> e.Names.Shardmap.node
        | None -> Alcotest.fail "bucket with no owner"
      in
      checkb "records migrated" true (owner moved_i <> owner stayed_i);
      (* The migrated name heals from the forwarding tombstone alone:
         the cached map is patched in place, the map host untouched. *)
      let r = Names.Shard_clerk.lookup sc5 (svc_name moved_i) in
      check Alcotest.int "migrated record intact" (100 + moved_i)
        r.Names.Record.segment_id;
      checkb "heal went through a forward patch" true
        (Names.Shard_clerk.forward_patches sc5 > 0);
      check Alcotest.int "no map refetch for the split heal" 0
        (Names.Shard_clerk.stale_refetches sc5);
      check Alcotest.int "new epoch adopted" 2 (Names.Shard_clerk.epoch sc5);
      checkb "convergence log saw epoch 2" true
        (List.exists (fun (e, _) -> e = 2) (Names.Shard_clerk.refreshes sc5));
      (* A name that did not move resolves without further refetches. *)
      let before = Names.Shard_clerk.stale_refetches sc5 in
      ignore (Names.Shard_clerk.lookup sc5 (svc_name stayed_i) : Names.Record.t);
      check Alcotest.int "no refetch for a resident name" before
        (Names.Shard_clerk.stale_refetches sc5);
      check Alcotest.int "nothing lost across the split" 40
        (Names.Reconciler.live reconciler);
      checkb "mirrors well-formed" true (Names.Reconciler.well_formed reconciler);
      (* Client 4 adopts epoch 2, then a merge revokes the absorbed
         segment: its stale descriptor fails cleanly and heals by map
         refetch. *)
      ignore (Names.Shard_clerk.lookup sc4 (svc_name moved_i) : Names.Record.t);
      check Alcotest.int "client 4 at epoch 2" 2 (Names.Shard_clerk.epoch sc4);
      (match Names.Reconciler.merge reconciler with
      | Some (_, _) -> ()
      | None -> Alcotest.fail "merge refused");
      let r = Names.Shard_clerk.lookup sc4 (svc_name moved_i) in
      check Alcotest.int "record found after merge" (100 + moved_i)
        r.Names.Record.segment_id;
      check Alcotest.int "client 4 at epoch 3" 3 (Names.Shard_clerk.epoch sc4);
      check Alcotest.int "nothing lost across the merge" 40
        (Names.Reconciler.live reconciler))

(* Clerk convergence under 10% frame loss: registrations, a mid-run
   split, and lookups all complete through the recovery machinery, with
   no lost and no stale-served registrations. *)
let test_loss_convergence () =
  (* A frame crosses up to four judged links on this Clos, so at 10%
     per-link loss a whole round trip survives only ~2/3 of the time;
     20 attempts push per-op give-up below 1e-4 across the run's
     hundreds of policied operations. *)
  let policy =
    Rmem.Recovery.policy ~attempts:20 ~timeout:(Sim.Time.ms 2)
      ~backoff:(Sim.Time.us 200) ()
  in
  let testbed, setup = sharded_rig ~policy () in
  let plan = Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:0.1 ()) () in
  let plane = Faults.Plane.create ~plan ~seed:77 testbed in
  Cluster.Testbed.run testbed (fun () ->
      let clerks, reconciler, sc4, sc5 = setup () in
      Array.iter
        (fun c -> Names.Clerk.set_probe_timeout c (Some (Sim.Time.ms 2)))
        clerks;
      Names.Shard_clerk.set_recovery sc4 (Some policy);
      Names.Shard_clerk.set_recovery sc5 (Some policy);
      for i = 0 to 23 do
        Names.Shard_clerk.register
          (if i mod 2 = 0 then sc4 else sc5)
          (svc_record i)
      done;
      check Alcotest.int "no lost registrations" 24
        (Names.Reconciler.live reconciler);
      (match Names.Reconciler.split reconciler 0 with
      | Some (_ : int) -> ()
      | None -> Alcotest.fail "split refused");
      (* Every record is served, at its registered generation, by both
         clients, over a lossy fabric and across the rebalance. *)
      for i = 0 to 23 do
        List.iter
          (fun sc ->
            let r = Names.Shard_clerk.lookup sc (svc_name i) in
            check Alcotest.int "segment id" (100 + i) r.Names.Record.segment_id;
            checkb "generation current" true
              (Rmem.Generation.equal r.Names.Record.generation
                 (Rmem.Generation.of_int 1)))
          [ sc4; sc5 ]
      done;
      checkb "mirrors well-formed" true (Names.Reconciler.well_formed reconciler);
      checkb "the plane actually injected faults" true
        (Faults.Plane.event_count plane > 0))

(* The map-as-revalidator under a recovery policy: client 5 holds a
   descriptor to the shard a merge revokes, so its READ fails
   Bad_segment and the policy calls the revalidator; the refetched map
   no longer lists that segment, so the revalidator refuses, and the
   lookup heals by map refetch. *)
let test_revalidator_gives_up () =
  let testbed, setup = sharded_rig () in
  Cluster.Testbed.run testbed (fun () ->
      let clerks, reconciler, sc4, sc5 = setup () in
      Names.Shard_clerk.set_recovery sc5
        (Some (Rmem.Recovery.policy ~attempts:4 ~timeout:(Sim.Time.ms 2) ()));
      for i = 0 to 39 do
        Names.Shard_clerk.register sc4 (svc_record i)
      done;
      let moved =
        let rec go i =
          if Names.Shardmap.bucket_of_name (svc_name i) > 32767 then i else go (i + 1)
        in
        go 0
      in
      (match Names.Reconciler.split reconciler 0 with
      | Some (_ : int) -> ()
      | None -> Alcotest.fail "split refused");
      ignore (Names.Shard_clerk.lookup sc5 (svc_name moved) : Names.Record.t);
      check Alcotest.int "client 5 at epoch 2" 2 (Names.Shard_clerk.epoch sc5);
      (match Names.Reconciler.merge reconciler with
      | Some (_, _) -> ()
      | None -> Alcotest.fail "merge refused");
      let refused () =
        Metrics.Account.total_of
          (Rmem.Remote_memory.errors (Names.Clerk.rmem clerks.(5)))
          "refused"
      in
      let r = Names.Shard_clerk.lookup sc5 (svc_name moved) in
      check Alcotest.int "record found after merge" (100 + moved)
        r.Names.Record.segment_id;
      check Alcotest.int "client 5 at epoch 3" 3 (Names.Shard_clerk.epoch sc5);
      checkb "the revalidator refused the revoked shard" true (refused () = 1.))

let suite =
  [
    ("clos: all pairs deliver", `Quick, test_clos_delivers);
    ("fat tree: cross-pod delivery", `Quick, test_fat_tree_delivers);
    ("unknown destination drops at switch", `Quick, test_unknown_destination_drops);
    ("200+ node testbed regression", `Quick, test_scale_200_nodes);
    QCheck_alcotest.to_alcotest qcheck_partition_totality;
    ("shard map rejects torn images", `Quick, test_shardmap_rejects_torn);
    ("moved tombstones keep probe chains", `Quick, test_tombstone_keeps_chains);
    ("sharded register/lookup end to end", `Quick, test_sharded_register_lookup);
    ("a refused registration raises", `Quick, test_register_refused);
    ("shard lookup hit allocation budget", `Quick, test_lookup_hit_budget);
    ("shard lookup miss allocation budget", `Quick, test_lookup_miss_budget);
    ("stale epoch heals across split and merge", `Quick, test_stale_epoch_heal);
    ("convergence under 10% loss", `Quick, test_loss_convergence);
    ("a merged-away shard: the revalidator refuses", `Quick, test_revalidator_gives_up);
  ]
