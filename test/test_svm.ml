(* Tests for the Ivy-style shared virtual memory comparator. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type rig = {
  testbed : Cluster.Testbed.t;
  agents : Svm.t array; (* agents.(0) is the manager *)
}

let make ?(nodes = 3) () =
  let testbed = Cluster.Testbed.create ~nodes () in
  let transports =
    Array.init nodes (fun i ->
        Rpckit.Transport.attach (Cluster.Testbed.node testbed i))
  in
  let manager = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
  let agents =
    Array.map (fun tr -> Svm.attach tr ~manager ~pages:4) transports
  in
  { testbed; agents }

let run rig body = Cluster.Testbed.run rig.testbed body

let read_own_writes () =
  let rig = make () in
  run rig (fun () ->
      let a = rig.agents.(1) in
      Svm.write a ~addr:100 (Bytes.of_string "svm data");
      Alcotest.(check string) "readback" "svm data"
        (Bytes.to_string (Svm.read a ~addr:100 ~len:8));
      check_bool "one write fault to take ownership" true
        (Svm.state a ~page:0 = Svm.Write_owned))

let coherent_across_nodes () =
  let rig = make () in
  run rig (fun () ->
      let writer = rig.agents.(1) and reader = rig.agents.(2) in
      Svm.write writer ~addr:0 (Bytes.of_string "version1");
      Alcotest.(check string) "reader sees v1" "version1"
        (Bytes.to_string (Svm.read reader ~addr:0 ~len:8));
      (* The writer updates: the reader's copy must be invalidated. *)
      Svm.write writer ~addr:0 (Bytes.of_string "version2");
      check_bool "reader invalidated" true
        (Svm.state reader ~page:0 = Svm.Invalid);
      Alcotest.(check string) "reader sees v2" "version2"
        (Bytes.to_string (Svm.read reader ~addr:0 ~len:8));
      check_int "reader faulted twice" 2 (Svm.read_faults reader);
      check_bool "one invalidation received" true
        (Svm.state reader ~page:0 = Svm.Read_shared))

let manager_participates () =
  let rig = make () in
  run rig (fun () ->
      let manager = rig.agents.(0) and other = rig.agents.(1) in
      (* The manager starts as owner: local, no faults. *)
      check_bool "manager writes locally" true
        (Svm.state manager ~page:0 = Svm.Write_owned);
      Svm.write manager ~addr:0 (Bytes.of_string "mgr");
      (* Another node takes the page; the manager must fault it back. *)
      Svm.write other ~addr:0 (Bytes.of_string "oth");
      Alcotest.(check string) "manager refetches" "oth"
        (Bytes.to_string (Svm.read manager ~addr:0 ~len:3));
      check_int "manager read fault" 1 (Svm.read_faults manager);
      (* The manager's own write fault takes the page back from the
         other node; the other's next write invalidates the manager's
         copy in place. *)
      Svm.write manager ~addr:0 (Bytes.of_string "mg2");
      Alcotest.(check string) "other refetches" "mg2"
        (Bytes.to_string (Svm.read other ~addr:0 ~len:3));
      Svm.write other ~addr:0 (Bytes.of_string "ot2");
      check_bool "manager copy invalidated" true
        (Svm.state manager ~page:0 = Svm.Invalid);
      Alcotest.(check string) "manager refetches again" "ot2"
        (Bytes.to_string (Svm.read manager ~addr:0 ~len:3)))

let read_sharing_is_free_after_fault () =
  let rig = make () in
  run rig (fun () ->
      let writer = rig.agents.(1) and reader = rig.agents.(2) in
      Svm.write writer ~addr:0 (Bytes.of_string "stable");
      for _ = 1 to 10 do
        ignore (Svm.read reader ~addr:0 ~len:6)
      done;
      check_int "exactly one fault for ten reads" 1 (Svm.read_faults reader))

let false_sharing_hurts () =
  let rig = make () in
  run rig (fun () ->
      let writer = rig.agents.(1) and reader = rig.agents.(2) in
      (* Two disjoint records on the same page. *)
      for i = 1 to 5 do
        Svm.write writer ~addr:0 (Bytes.make 64 (Char.chr (i + 64)));
        ignore (Svm.read reader ~addr:2048 ~len:64)
      done;
      check_bool "reader faults repeatedly despite disjoint data" true
        (Svm.read_faults reader >= 5))

let cross_page_access () =
  let rig = make () in
  run rig (fun () ->
      let a = rig.agents.(1) in
      let data = Bytes.make 6000 'z' in
      Svm.write a ~addr:2000 data;
      check_bool "spans two pages" true
        (Bytes.equal data (Svm.read a ~addr:2000 ~len:6000));
      check_bool "two pages acquired" true
        (List.for_all (fun page -> Svm.state a ~page = Svm.Write_owned) [ 0; 1 ]))

let concurrent_writers_serialize () =
  let rig = make () in
  run rig (fun () ->
      let a = rig.agents.(1) and b = rig.agents.(2) in
      (* Two nodes write disjoint records on the same page concurrently;
         the manager serializes ownership, so both writes survive. *)
      let done_count = ref 0 in
      let all_done = Sim.Ivar.create () in
      let writer agent addr fill =
        Cluster.Node.spawn
          (Cluster.Testbed.node rig.testbed (if agent == a then 1 else 2))
          (fun () ->
            Svm.write agent ~addr (Bytes.make 64 fill);
            incr done_count;
            if !done_count = 2 then Sim.Ivar.fill all_done ())
      in
      writer a 0 'A';
      writer b 1024 'B';
      Sim.Ivar.read all_done;
      (* Read back through either agent: both records intact. *)
      check_bool "record A survived" true
        (Bytes.equal (Svm.read a ~addr:0 ~len:64) (Bytes.make 64 'A'));
      check_bool "record B survived" true
        (Bytes.equal (Svm.read a ~addr:1024 ~len:64) (Bytes.make 64 'B')))

let bounds_checked () =
  let rig = make () in
  run rig (fun () ->
      check_bool "out of region" true
        (try
           ignore (Svm.read rig.agents.(1) ~addr:(4 * 4096) ~len:4);
           false
         with Invalid_argument _ -> true))

let suite =
  [
    Alcotest.test_case "read own writes" `Quick read_own_writes;
    Alcotest.test_case "coherent across nodes" `Quick coherent_across_nodes;
    Alcotest.test_case "manager participates" `Quick manager_participates;
    Alcotest.test_case "read sharing free after fault" `Quick
      read_sharing_is_free_after_fault;
    Alcotest.test_case "false sharing hurts" `Quick false_sharing_hurts;
    Alcotest.test_case "concurrent writers serialize" `Quick
      concurrent_writers_serialize;
    Alcotest.test_case "cross-page access" `Quick cross_page_access;
    Alcotest.test_case "bounds checked" `Quick bounds_checked;
  ]
