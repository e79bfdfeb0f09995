(* Stress, determinism, model-based and failure-injection tests. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Whole-stack determinism ---------------- *)

let engine_trace_deterministic =
  QCheck.Test.make ~name:"identical seeds give identical event traces"
    ~count:30
    QCheck.(pair small_int (list (int_bound 10000)))
    (fun (seed, delays) ->
      let run () =
        let engine = Sim.Engine.create () in
        let prng = Sim.Prng.create seed in
        let trace = ref [] in
        List.iteri
          (fun i delay ->
            Sim.Engine.schedule ~after:(Sim.Time.ns delay) engine (fun () ->
                let jitter = Sim.Prng.int prng 100 in
                trace := (i, Sim.Engine.now engine, jitter) :: !trace))
          delays;
        Sim.Engine.run engine;
        !trace
      in
      run () = run ())

let fig2_is_deterministic () =
  (* Each run builds a fresh fixture. *)
  let a = Experiments.Fig2.run () and b = Experiments.Fig2.run () in
  check_bool "two fresh fixtures, identical figure" true (a = b)

let trace_generation_deterministic () =
  let make () =
    let prng = Sim.Prng.create 77 in
    let tree = Workload.File_tree.build prng in
    Workload.Trace.generate ~scale:2000 tree prng
  in
  let a = make () and b = make () in
  check_bool "identical traces from identical seeds" true (a = b)

(* ---------------- Model-based remote memory ---------------- *)

type mem_op = Op_write of int * string | Op_read of int * int

let mem_op_gen =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun off s -> Op_write (off, s))
          (0 -- 4000)
          (string_size (1 -- 500));
        map2 (fun off len -> Op_read (off, len)) (0 -- 4000) (1 -- 500);
      ])

let rmem_matches_reference_model =
  QCheck.Test.make ~name:"remote memory matches a byte-array model" ~count:30
    (QCheck.make QCheck.Gen.(list_size (1 -- 25) mem_op_gen))
    (fun ops ->
      let d = Rig.duo () in
      let model = Bytes.make 8192 '\000' in
      let ok = ref true in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:8192 d in
          let buf = Rig.buffer0 d in
          List.iter
            (fun op ->
              match op with
              | Op_write (off, s) ->
                  let data = Bytes.of_string s in
                  let len = min (Bytes.length data) (8192 - off) in
                  let data = Bytes.sub data 0 len in
                  Rmem.Remote_memory.write d.Rig.rmem0 desc ~off data;
                  Bytes.blit data 0 model off len;
                  (* Writes are unacknowledged: reads are the paper's
                     ordering point, and frames are FIFO per link, so a
                     subsequent read observes every prior write. *)
                  ()
              | Op_read (off, len) ->
                  let len = min len (8192 - off) in
                  if len > 0 then begin
                    Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:off
                      ~count:len ~dst:buf ~doff:0 ();
                    let got =
                      Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len
                    in
                    if not (Bytes.equal got (Bytes.sub model off len)) then
                      ok := false
                  end)
            ops);
      !ok)

(* ---------------- Registry vs reference model ---------------- *)

type reg_op = Reg_insert of string | Reg_delete of string | Reg_lookup of string

let reg_op_gen =
  QCheck.Gen.(
    let name = map (Printf.sprintf "n%02d") (0 -- 30) in
    oneof
      [
        map (fun n -> Reg_insert n) name;
        map (fun n -> Reg_delete n) name;
        map (fun n -> Reg_lookup n) name;
      ])

let registry_matches_reference =
  QCheck.Test.make ~name:"registry matches a map model" ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) reg_op_gen))
    (fun ops ->
      let space = Cluster.Address_space.create ~asid:5 () in
      let registry = Names.Registry.create ~space ~base:0 ~slots:128 in
      let model = Hashtbl.create 32 in
      let record name =
        Names.Record.make ~name ~node:1 ~segment_id:1
          ~generation:Rmem.Generation.initial ~size:64 ~rights:Rmem.Rights.all
      in
      List.for_all
        (fun op ->
          match op with
          | Reg_insert name -> (
              match Names.Registry.insert registry (record name) with
              | Ok _ ->
                  Hashtbl.replace model name ();
                  true
              | Error `Full -> true)
          | Reg_delete name ->
              let was_there = Hashtbl.mem model name in
              Hashtbl.remove model name;
              Names.Registry.delete registry name <> None = was_there
          | Reg_lookup name ->
              Names.Registry.lookup registry name <> None
              = Hashtbl.mem model name)
        ops
      && Names.Registry.live registry = Hashtbl.length model)

(* ---------------- Concurrency stress ---------------- *)

let concurrent_writers_disjoint_regions () =
  let nodes = 5 in
  let testbed = Cluster.Testbed.create ~nodes () in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let home_space =
        Cluster.Node.new_address_space (Cluster.Testbed.node testbed 0)
      in
      let segment =
        Rmem.Remote_memory.export rmems.(0) ~space:home_space ~base:0
          ~len:65536 ~rights:Rmem.Rights.all ~name:"arena" ()
      in
      let finished = ref 0 in
      let all_done = Sim.Ivar.create () in
      for i = 1 to nodes - 1 do
        let node = Cluster.Testbed.node testbed i in
        Cluster.Node.spawn node (fun () ->
            let desc =
              Rmem.Remote_memory.import rmems.(i)
                ~remote:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
                ~segment_id:(Rmem.Segment.id segment)
                ~generation:(Rmem.Segment.generation segment)
                ~size:65536 ~rights:Rmem.Rights.all ()
            in
            (* Each writer owns a 16 KB stripe and fills it. *)
            let base = (i - 1) * 16384 in
            for chunk = 0 to 3 do
              Rmem.Remote_memory.write rmems.(i) desc
                ~off:(base + (chunk * 4096))
                (Bytes.make 4096 (Char.chr (64 + i)))
            done;
            incr finished;
            if !finished = nodes - 1 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      Sim.Proc.wait (Sim.Time.ms 20);
      for i = 1 to nodes - 1 do
        let stripe =
          Cluster.Address_space.read home_space ~addr:((i - 1) * 16384)
            ~len:16384
        in
        check_bool
          (Printf.sprintf "stripe %d intact" i)
          true
          (Bytes.equal stripe (Bytes.make 16384 (Char.chr (64 + i))))
      done)

let many_outstanding_reads_complete () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:65536 d in
      Cluster.Address_space.write d.Rig.space1 ~addr:0
        (Bytes.init 65536 (fun i -> Char.chr (i land 0xFF)));
      (* Issue a pile of async reads into disjoint destinations, then
         wait for all. *)
      let buf = Rig.buffer0 d in
      let completions =
        List.init 24 (fun i ->
            ( i,
              Rmem.Remote_memory.read d.Rig.rmem0 desc ~soff:(i * 512)
                ~count:512 ~dst:buf ~doff:(i * 512) () ))
      in
      List.iter
        (fun (i, completion) ->
          (match Rmem.Remote_memory.await completion with
          | Rmem.Status.Ok -> ()
          | status -> Alcotest.failf "read %d: %s" i (Rmem.Status.to_string status));
          let got =
            Cluster.Address_space.read d.Rig.space0 ~addr:(i * 512) ~len:512
          in
          let expected =
            Cluster.Address_space.read d.Rig.space1 ~addr:(i * 512) ~len:512
          in
          check_bool (Printf.sprintf "read %d bytes" i) true
            (Bytes.equal got expected))
        completions)

let notification_flood_counts () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      let n = 32 in
      for i = 1 to n do
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 8) ~notify:true
          (Bytes.make 4 'f')
      done;
      let seen = ref 0 in
      for _ = 1 to n do
        let (_ : Rmem.Notification.record) = Rmem.Notification.wait fd in
        incr seen
      done;
      check_int "all notifications delivered" n !seen;
      check_int "none left over" 0 (Rmem.Notification.pending fd))

(* ---------------- Failure injection ---------------- *)

let crash_mid_transfer_loses_only_tail () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:65536 d in
      (* Crash the destination shortly after the transfer starts: early
         bursts land, late ones are absorbed; nothing corrupts. *)
      Sim.Proc.spawn d.Rig.engine (fun () ->
          Sim.Proc.wait (Sim.Time.us 450);
          Cluster.Node.set_down d.Rig.node1 true);
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 16384 'D');
      Sim.Proc.wait (Sim.Time.ms 10);
      Cluster.Node.set_down d.Rig.node1 false;
      let landed = ref 0 in
      let data = Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:16384 in
      Bytes.iter (fun c -> if c = 'D' then incr landed) data;
      check_bool "a prefix landed" true (!landed > 0);
      check_bool "the tail was lost" true (!landed < 16384);
      (* Prefix property: all delivered bytes are contiguous from 0. *)
      check_bool "no holes" true
        (Bytes.equal
           (Bytes.sub data 0 !landed)
           (Bytes.make !landed 'D'));
      (* The paper's recovery: the writer re-sends after detection. *)
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 16384 'D');
      Sim.Proc.wait (Sim.Time.ms 10);
      check_bool "retransmission completes" true
        (Bytes.equal
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:16384)
           (Bytes.make 16384 'D')))

let cas_timeout_then_recovery () =
  let once () = Rmem.Recovery.policy ~attempts:1 ~timeout:(Sim.Time.ms 2) () in
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      check_bool "cas times out" true
        (try
           ignore
             (Rmem.Remote_memory.cas_wait ~policy:(once ()) d.Rig.rmem0 desc
                ~doff:0 ~old_value:0 ~new_value:1 ());
           false
         with Rmem.Status.Timeout -> true);
      Cluster.Node.set_down d.Rig.node1 false;
      let won =
        Rmem.Remote_memory.cas_wait ~policy:(once ()) d.Rig.rmem0 desc ~doff:0
          ~old_value:0 ~new_value:1 ()
        = 0
      in
      check_bool "cas works after revival" true won)

let hybrid_request_times_out_on_dead_server () =
  let fixture = Experiments.Fixture.create () in
  let clerk = Experiments.Fixture.clerk fixture 0 in
  Experiments.Fixture.run fixture (fun () ->
      Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
      Cluster.Node.set_down (Cluster.Testbed.node fixture.Experiments.Fixture.testbed 0) true;
      check_bool "hybrid fetch times out" true
        (try
           ignore (Dfs.Clerk.remote_fetch clerk Dfs.Nfs_ops.Null);
           false
         with Rmem.Status.Timeout -> true);
      Cluster.Node.set_down (Cluster.Testbed.node fixture.Experiments.Fixture.testbed 0) false;
      match Dfs.Clerk.remote_fetch clerk Dfs.Nfs_ops.Null with
      | Dfs.Nfs_ops.R_null -> ()
      | _ -> Alcotest.fail "service did not recover")

let suite =
  [
    Alcotest.test_case "fig2 deterministic across fixtures" `Slow
      fig2_is_deterministic;
    Alcotest.test_case "trace generation deterministic" `Quick
      trace_generation_deterministic;
    Alcotest.test_case "concurrent writers, disjoint stripes" `Quick
      concurrent_writers_disjoint_regions;
    Alcotest.test_case "many outstanding reads complete" `Quick
      many_outstanding_reads_complete;
    Alcotest.test_case "notification flood" `Quick notification_flood_counts;
    Alcotest.test_case "crash mid-transfer loses only the tail" `Quick
      crash_mid_transfer_loses_only_tail;
    Alcotest.test_case "cas timeout then recovery" `Quick
      cas_timeout_then_recovery;
    Alcotest.test_case "hybrid request times out on dead server" `Slow
      hybrid_request_times_out_on_dead_server;
    QCheck_alcotest.to_alcotest engine_trace_deterministic;
    QCheck_alcotest.to_alcotest rmem_matches_reference_model;
    QCheck_alcotest.to_alcotest registry_matches_reference;
  ]
