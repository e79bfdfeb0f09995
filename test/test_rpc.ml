(* Tests for the RPC baseline stack. *)

let check_int = Alcotest.(check int)

(* ---------------- XDR ---------------- *)

let xdr_roundtrip =
  QCheck.Test.make ~name:"xdr roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFFFFFF) bool
        (string_of_size Gen.(0 -- 100))
        (string_of_size Gen.(0 -- 200)))
    (fun (n, b, s, payload) ->
      let x = Rpckit.Xdr.create () in
      Rpckit.Xdr.int x n;
      Rpckit.Xdr.bool x b;
      Rpckit.Xdr.string x s;
      Rpckit.Xdr.opaque x (Bytes.of_string payload);
      let r = Rpckit.Xdr.reader (Rpckit.Xdr.contents x) in
      Rpckit.Xdr.read_int r = n
      && Rpckit.Xdr.read_bool r = b
      && String.equal (Rpckit.Xdr.read_string r) s
      && Bytes.equal (Rpckit.Xdr.read_opaque r) (Bytes.of_string payload))

let xdr_alignment () =
  let x = Rpckit.Xdr.create () in
  Rpckit.Xdr.opaque x (Bytes.of_string "abc");
  (* 4 length + 3 body + 1 pad *)
  check_int "padded to word" 8 (Rpckit.Xdr.length x)

let xdr_classification () =
  let x = Rpckit.Xdr.create () in
  Rpckit.Xdr.int x 1;
  (* control: 4 *)
  Rpckit.Xdr.opaque x (Bytes.make 10 'd');
  (* control: 4 len + 2 pad; data: 10 *)
  Rpckit.Xdr.fixed_opaque ~cls:`Data x (Bytes.make 8 'a');
  (* data: 8 *)
  Rpckit.Xdr.string x "name";
  (* control: 4 + 4 *)
  check_int "control" (4 + 4 + 2 + 4 + 4) (Rpckit.Xdr.control_bytes x);
  check_int "data" 18 (Rpckit.Xdr.data_bytes x);
  check_int "total" (Rpckit.Xdr.control_bytes x + Rpckit.Xdr.data_bytes x)
    (Rpckit.Xdr.length x)

(* ---------------- Transport + client + server ---------------- *)

type rpc_rig = {
  testbed : Cluster.Testbed.t;
  t0 : Rpckit.Transport.t;
  t1 : Rpckit.Transport.t;
  addr1 : Atm.Addr.t;
}

let rpc_rig () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  {
    testbed;
    t0 = Rpckit.Transport.attach node0;
    t1 = Rpckit.Transport.attach node1;
    addr1 = Cluster.Node.addr node1;
  }

let echo_handler ~src:_ ~proc reader =
  let x = Rpckit.Xdr.create () in
  Rpckit.Xdr.int x proc;
  Rpckit.Xdr.opaque x (Rpckit.Xdr.read_opaque reader);
  x

let call_roundtrip () =
  let rig = rpc_rig () in
  let (_ : Rpckit.Server.t) =
    Rpckit.Server.create rig.t1 ~prog:7 ~handler:echo_handler ()
  in
  Cluster.Testbed.run rig.testbed (fun () ->
      let args = Rpckit.Xdr.create () in
      Rpckit.Xdr.opaque args (Bytes.of_string "payload");
      let reply =
        Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:7 ~proc:3 ~label:"echo"
          args
      in
      check_int "proc echoed" 3 (Rpckit.Xdr.read_int reply);
      Alcotest.(check string) "payload echoed" "payload"
        (Bytes.to_string (Rpckit.Xdr.read_opaque reply)))

let concurrent_calls_matched () =
  let rig = rpc_rig () in
  let (_ : Rpckit.Server.t) =
    Rpckit.Server.create rig.t1 ~prog:7 ~threads:4 ~handler:echo_handler ()
  in
  Cluster.Testbed.run rig.testbed (fun () ->
      let results = ref [] in
      let pending = ref 0 in
      let all_done = Sim.Ivar.create () in
      for i = 1 to 6 do
        incr pending;
        Sim.Proc.spawn
          (Cluster.Testbed.engine rig.testbed)
          (fun () ->
            let args = Rpckit.Xdr.create () in
            Rpckit.Xdr.opaque args (Bytes.of_string (string_of_int i));
            let reply =
              Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:7 ~proc:i
                ~label:"echo" args
            in
            let proc = Rpckit.Xdr.read_int reply in
            let body = Bytes.to_string (Rpckit.Xdr.read_opaque reply) in
            results := (proc, body) :: !results;
            decr pending;
            if !pending = 0 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      let sorted = List.sort compare !results in
      Alcotest.(check (list (pair int string)))
        "every call got its own reply"
        (List.init 6 (fun i -> (i + 1, string_of_int (i + 1))))
        sorted)

(* The control/data split of one echo's frames: headers are control,
   the opaque bytes data, both ways. *)
let traffic_accounted_on_caller () =
  let rig = rpc_rig () in
  let (_ : Rpckit.Server.t) =
    Rpckit.Server.create rig.t1 ~prog:7 ~handler:echo_handler ()
  in
  Cluster.Testbed.run rig.testbed (fun () ->
      let args = Rpckit.Xdr.create () in
      Rpckit.Xdr.opaque args (Bytes.make 100 'd');
      let reader =
        Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:7 ~proc:0 ~label:"op"
          args
      in
      let reply = Rpckit.Xdr.create () in
      Rpckit.Xdr.int reply (Rpckit.Xdr.read_int reader);
      Rpckit.Xdr.opaque reply (Rpckit.Xdr.read_opaque reader);
      (* Call: 72 header + 4 len; reply: 24 header + 8 split + 4 proc +
         4 len.  Data: 100 out, 100 echoed back. *)
      Alcotest.(check int) "data both ways" 200
        (Rpckit.Xdr.data_bytes args + Rpckit.Xdr.data_bytes reply);
      Alcotest.(check int) "control includes headers" (72 + 4 + 24 + 8 + 4 + 4)
        (Rpckit.Transport.call_frame_bytes args - Rpckit.Xdr.data_bytes args
        + Rpckit.Transport.reply_frame_bytes reply - Rpckit.Xdr.data_bytes reply))

(* A second request waits for the one busy thread: it finishes a whole
   handler time after the first. *)
let server_queueing_stats () =
  let rig = rpc_rig () in
  let (_ : Rpckit.Server.t) =
    Rpckit.Server.create rig.t1 ~prog:7 ~threads:1
      ~handler:(fun ~src:_ ~proc:_ _reader ->
        (* A slow handler so a second request queues. *)
        Sim.Proc.wait (Sim.Time.ms 1);
        Rpckit.Xdr.create ())
      ()
  in
  Cluster.Testbed.run rig.testbed (fun () ->
      let finished = ref [] in
      let all_done = Sim.Ivar.create () in
      for _ = 1 to 2 do
        Sim.Proc.spawn
          (Cluster.Testbed.engine rig.testbed)
          (fun () ->
            let (_ : Rpckit.Xdr.reader) =
              Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:7 ~proc:0
                ~label:"slow" (Rpckit.Xdr.create ())
            in
            finished := Sim.Engine.now (Cluster.Testbed.engine rig.testbed) :: !finished;
            if List.length !finished = 2 then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      match !finished with
      | [ second; first ] ->
          Alcotest.(check bool) "second call queued" true
            (Sim.Time.diff second first >= Sim.Time.ms 1)
      | _ -> Alcotest.fail "served")

let thread_pool_parallelism () =
  (* Two service threads run two slow calls concurrently: the combined
     makespan is far below twice the single-call time. *)
  let makespan threads =
    let rig = rpc_rig () in
    let (_ : Rpckit.Server.t) =
      Rpckit.Server.create rig.t1 ~prog:7 ~threads
        ~handler:(fun ~src:_ ~proc:_ _reader ->
          Sim.Proc.wait (Sim.Time.ms 5);
          Rpckit.Xdr.create ())
        ()
    in
    let engine = Cluster.Testbed.engine rig.testbed in
    let t = ref Sim.Time.zero in
    Cluster.Testbed.run rig.testbed (fun () ->
        let t0 = Sim.Engine.now engine in
        let finished = ref 0 in
        let all_done = Sim.Ivar.create () in
        for _ = 1 to 2 do
          Sim.Proc.spawn engine (fun () ->
              let (_ : Rpckit.Xdr.reader) =
                Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:7 ~proc:0
                  ~label:"slow" (Rpckit.Xdr.create ())
              in
              incr finished;
              if !finished = 2 then Sim.Ivar.fill all_done ())
        done;
        Sim.Ivar.read all_done;
        t := Sim.Time.diff (Sim.Engine.now engine) t0);
    Sim.Time.to_ms !t
  in
  let serial = makespan 1 and parallel = makespan 2 in
  Alcotest.(check bool) "two threads overlap the service time" true
    (parallel < serial *. 0.7)

let unknown_program_fails () =
  let rig = rpc_rig () in
  (* The failure fires in the destination's dispatcher process and
     surfaces out of the simulation run. *)
  Alcotest.(check bool) "failure surfaces" true
    (try
       Cluster.Testbed.run rig.testbed (fun () ->
           let (_ : Rpckit.Xdr.reader) =
             Rpckit.Client.call rig.t0 ~dst:rig.addr1 ~prog:99 ~proc:0
               ~label:"nope" (Rpckit.Xdr.create ())
           in
           ());
       false
     with Failure _ -> true)

let suite =
  [
    Alcotest.test_case "xdr alignment" `Quick xdr_alignment;
    Alcotest.test_case "xdr control/data classification" `Quick xdr_classification;
    Alcotest.test_case "call round trip" `Quick call_roundtrip;
    Alcotest.test_case "concurrent calls matched by xid" `Quick concurrent_calls_matched;
    Alcotest.test_case "traffic accounted on caller" `Quick traffic_accounted_on_caller;
    Alcotest.test_case "server queueing stats" `Quick server_queueing_stats;
    Alcotest.test_case "thread pool parallelism" `Quick thread_pool_parallelism;
    Alcotest.test_case "unknown program fails" `Quick unknown_program_fails;
    QCheck_alcotest.to_alcotest xdr_roundtrip;
  ]
