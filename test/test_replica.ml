(* Tests for the serverless replicated configuration store (§3.2). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type rig = {
  testbed : Cluster.Testbed.t;
  replicas : Replica.t array;
}

let make ?(nodes = 3) () =
  let testbed = Cluster.Testbed.create ~nodes () in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let out = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let names = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let replicas = Array.map Replica.create names in
      (* Full mesh membership. *)
      Array.iter
        (fun r ->
          Array.iteri
            (fun j _ ->
              Replica.join r
                ~peer:(Cluster.Node.addr (Cluster.Testbed.node testbed j)))
            replicas)
        replicas;
      out := Some replicas);
  { testbed; replicas = Option.get !out }

let run rig body = Cluster.Testbed.run rig.testbed body

let get_string r key = Option.map Bytes.to_string (Replica.get r key)

let set_propagates_everywhere () =
  let rig = make () in
  let writes = ref 0 in
  Cluster.Node.subscribe (Cluster.Testbed.node rig.testbed 0) (function
    | Rmem.Remote_memory.Issued { op = Rmem.Rights.Write_op; _ } -> incr writes
    | _ -> ());
  run rig (fun () ->
      check_int "three members" 3 (Replica.members rig.replicas.(0));
      Replica.set rig.replicas.(0) "cluster/leader" (Bytes.of_string "node0");
      Sim.Proc.wait (Sim.Time.ms 2);
      Array.iteri
        (fun i r ->
          Alcotest.(check (option string))
            (Printf.sprintf "replica %d" i)
            (Some "node0") (get_string r "cluster/leader"))
        rig.replicas;
      (* Reads are local: no network traffic involved.  Each update is
         two WRITEs, the body and then its version word. *)
      check_int "two remote updates per set" (2 * 2) !writes)

let versions_win () =
  let rig = make () in
  run rig (fun () ->
      Replica.set rig.replicas.(0) "k" (Bytes.of_string "v1");
      Sim.Proc.wait (Sim.Time.ms 2);
      (* A later write from another member supersedes it everywhere. *)
      Replica.set rig.replicas.(1) "k" (Bytes.of_string "v2");
      Sim.Proc.wait (Sim.Time.ms 2);
      Array.iter
        (fun r ->
          Alcotest.(check (option string)) "newest version" (Some "v2")
            (get_string r "k"))
        rig.replicas)

let concurrent_writes_converge () =
  let rig = make () in
  run rig (fun () ->
      (* Two members write the same key "simultaneously" (same version):
         after anti-entropy in both directions everyone agrees on the
         higher writer id. *)
      Replica.set rig.replicas.(0) "k" (Bytes.of_string "from0");
      Replica.set rig.replicas.(1) "k" (Bytes.of_string "from1");
      Sim.Proc.wait (Sim.Time.ms 2);
      let a1 = Cluster.Node.addr (Cluster.Testbed.node rig.testbed 1) in
      let a0 = Cluster.Node.addr (Cluster.Testbed.node rig.testbed 0) in
      Replica.anti_entropy_with rig.replicas.(0) ~peer:a1;
      Replica.anti_entropy_with rig.replicas.(1) ~peer:a0;
      Replica.anti_entropy_with rig.replicas.(2) ~peer:a1;
      let winner = get_string rig.replicas.(0) "k" in
      Alcotest.(check (option string)) "tie broken by writer id" (Some "from1") winner;
      Array.iter
        (fun r ->
          Alcotest.(check (option string)) "all agree" winner (get_string r "k"))
        rig.replicas)

let partition_repaired_by_daemon () =
  let rig = make () in
  run rig (fun () ->
      let node2 = Cluster.Testbed.node rig.testbed 2 in
      (* Member 2 is down during an update: it misses the push. *)
      Cluster.Node.set_down node2 true;
      Replica.set rig.replicas.(0) "k" (Bytes.of_string "missed");
      Sim.Proc.wait (Sim.Time.ms 2);
      Cluster.Node.set_down node2 false;
      check_bool "member 2 missed the update" true
        (get_string rig.replicas.(2) "k" = None);
      (* Its anti-entropy daemon repairs the gap. *)
      let stop =
        Replica.start_anti_entropy_daemon rig.replicas.(2)
          ~period:(Sim.Time.ms 3)
      in
      Sim.Proc.wait (Sim.Time.ms 20);
      stop ();
      Alcotest.(check (option string)) "repaired" (Some "missed")
        (get_string rig.replicas.(2) "k");
      check_bool "repair counted" true (Replica.repairs rig.replicas.(2) >= 1))

let size_limits_enforced () =
  let rig = make () in
  run rig (fun () ->
      check_bool "long key rejected" true
        (try
           Replica.set rig.replicas.(0) (String.make 40 'k') Bytes.empty;
           false
         with Invalid_argument _ -> true);
      check_bool "big value rejected" true
        (try
           Replica.set rig.replicas.(0) "k" (Bytes.make 100 'v');
           false
         with Invalid_argument _ -> true))

let suite =
  [
    Alcotest.test_case "set propagates everywhere" `Quick
      set_propagates_everywhere;
    Alcotest.test_case "newer versions win" `Quick versions_win;
    Alcotest.test_case "concurrent writes converge" `Quick
      concurrent_writes_converge;
    Alcotest.test_case "partition repaired by daemon" `Quick
      partition_repaired_by_daemon;
    Alcotest.test_case "size limits enforced" `Quick size_limits_enforced;
  ]
