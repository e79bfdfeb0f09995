(* Tests for the Active Messages comparator. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rig () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let a0 = Amsg.attach (Cluster.Testbed.node testbed 0) in
  let a1 = Amsg.attach (Cluster.Testbed.node testbed 1) in
  (testbed, a0, a1)

let handler_runs_with_args () =
  let testbed, a0, a1 = rig () in
  let received = ref [] in
  Amsg.register a0 ~id:3 (fun ~src args ~pos ~len ->
      received := (Atm.Addr.to_int src, Bytes.sub_string args pos len) :: !received;
      Sim.Time.zero);
  Cluster.Testbed.run testbed (fun () ->
      Amsg.send a1
        ~dst:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
        ~handler:3 (Bytes.of_string "ping");
      Sim.Proc.wait (Sim.Time.ms 1);
      Alcotest.(check (list (pair int string)))
        "handler saw source and payload"
        [ (1, "ping") ]
        !received;
      check_int "sent" 1 (Amsg.sent a1))

let request_reply_round_trip () =
  let testbed, a0, a1 = rig () in
  let client_space =
    Cluster.Node.new_address_space (Cluster.Testbed.node testbed 1)
  in
  Amsg.register a0 ~id:1 (fun ~src:_ args ~pos ~len ->
      (* Double each byte and send the result back. *)
      let f = Amsg.frame a0 ~len in
      for i = 0 to len - 1 do
        Bytes.set (Atm.Frame.payload f) (Amsg.header_bytes + i)
          (Char.chr (2 * Char.code (Bytes.get args (pos + i)) land 0xFF))
      done;
      Amsg.reply a0 ~handler:2 f;
      Sim.Time.zero);
  Amsg.register a1 ~id:2 (fun ~src:_ args ~pos ~len ->
      Cluster.Address_space.write_from client_space ~addr:4 args ~pos ~len;
      Cluster.Address_space.write_word client_space ~addr:0 1;
      Sim.Time.zero);
  Cluster.Testbed.run testbed (fun () ->
      Amsg.send a1
        ~dst:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
        ~handler:1
        (Bytes.of_string "\001\002\003");
      let rec spin () =
        if Cluster.Address_space.read_word client_space ~addr:0 = 0
        then begin
          Sim.Proc.wait (Sim.Time.us 5);
          spin ()
        end
      in
      spin ();
      Alcotest.(check bytes) "computed reply" (Bytes.of_string "\002\004\006")
        (Cluster.Address_space.read client_space ~addr:4 ~len:3))

let unknown_handler_fails () =
  let testbed, _a0, a1 = rig () in
  check_bool "failure surfaces" true
    (try
       Cluster.Testbed.run testbed (fun () ->
           Amsg.send a1
             ~dst:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
             ~handler:99 Bytes.empty;
           Sim.Proc.wait (Sim.Time.ms 1));
       false
     with Failure _ -> true)

let register_validation () =
  let _testbed, a0, _a1 = rig () in
  Amsg.register a0 ~id:7 (fun ~src:_ _ ~pos:_ ~len:_ -> Sim.Time.zero);
  check_bool "duplicate id rejected" true
    (try
       Amsg.register a0 ~id:7 (fun ~src:_ _ ~pos:_ ~len:_ -> Sim.Time.zero);
       false
     with Invalid_argument _ -> true)

let handler_cpu_is_tracked () =
  let testbed, a0, a1 = rig () in
  Amsg.register a0 ~id:1 (fun ~src:_ _ ~pos:_ ~len:_ -> Sim.Time.us 50);
  Cluster.Testbed.run testbed (fun () ->
      Amsg.send a1
        ~dst:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
        ~handler:1 Bytes.empty;
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "handler cpu recorded" (Sim.Time.us 50)
        (Sim.Time.to_ns (Amsg.handler_cpu a0)))

(* Frames are parsed in place: a frame shorter than its 8-byte header,
   or than the argument length its header declares, is refused at the
   receiver with [Atm.Codec.Truncated] before any handler runs. *)
let truncated_frames_refused () =
  let raw payload =
    let testbed, a0, _a1 = rig () in
    let ran = ref false in
    Amsg.register a0 ~id:4 (fun ~src:_ _ ~pos:_ ~len:_ ->
        ran := true;
        Sim.Time.zero);
    let refused =
      try
        Cluster.Testbed.run testbed (fun () ->
            Cluster.Node.transmit (Cluster.Testbed.node testbed 1)
              ~dst:(Cluster.Node.addr (Cluster.Testbed.node testbed 0))
              payload;
            Sim.Proc.wait (Sim.Time.ms 1));
        false
      with Atm.Codec.Truncated -> true
    in
    refused && not !ran
  in
  let header ~len extra =
    let b = Bytes.make (8 + extra) '\000' in
    Bytes.set_uint8 b 0 0x28;
    Bytes.set_uint8 b 1 4;
    Bytes.set_uint16_le b 2 len;
    b
  in
  check_bool "shorter than the header" true
    (raw (Bytes.sub (header ~len:0 0) 0 5));
  check_bool "shorter than its declared length" true (raw (header ~len:10 4));
  check_bool "a whole frame is delivered" false (raw (header ~len:4 4))

let handler_id_checked_at_send () =
  let testbed, _a0, a1 = rig () in
  let dst = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
  List.iter
    (fun handler ->
      check_bool
        (Printf.sprintf "handler %d rejected" handler)
        true
        (try
           Amsg.send a1 ~dst ~handler Bytes.empty;
           false
         with Invalid_argument _ -> true))
    [ -1; 256; 0x1000 ];
  check_int "nothing sent" 0 (Amsg.sent a1)


(* A [Dds.Call] service that notes its run and answers with its
   request, asking for [span] of CPU. *)
let echo note what span ~src:_ body ~pos ~len ~(reply : Dds.Call.reply) =
  note what;
  Bytes.blit body pos reply.buf 0 len;
  reply.len <- len;
  span

(* One home node serves every kind of frame while a process uses its
   CPU: fresh requests to a [Dds.Call] service, a duplicate the reply
   ring answers, a handler that sends no reply, the replies to the
   home's own calls, and remote-memory requests and replies.  Its log
   instants, events, busy time, accounts and handler CPU are the
   figures a receive-dispatcher process running the active messages
   gave. *)
let schedule_kept () =
  let d = Rig.duo () in
  let home = d.Rig.node1 and peer = d.Rig.node0 in
  let am_home = Amsg.attach home and am_peer = Amsg.attach peer in
  let cpu = Cluster.Node.cpu home in
  let log = ref [] in
  let note what = log := (what, Sim.Engine.now d.Rig.engine) :: !log in
  Dds.Call.serve am_home ~id:0x60 (echo note "served" (Sim.Time.us 7));
  Dds.Call.serve am_peer ~id:0x61 (echo note "peer served" (Sim.Time.us 2));
  Amsg.register am_home ~id:0x62 (fun ~src:_ _ ~pos:_ ~len:_ ->
      note "one-way";
      Sim.Time.us 3);
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let segment =
        Rmem.Remote_memory.export d.Rig.rmem0 ~space:d.Rig.space0 ~base:0
          ~len:4096 ~rights:Rmem.Rights.all ~name:"back" ()
      in
      let back =
        Rmem.Remote_memory.import d.Rig.rmem1 ~remote:(Cluster.Node.addr peer)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment) ~size:4096
          ~rights:Rmem.Rights.all ()
      in
      let call am ~dst ~id what =
        let ep = Dds.Call.endpoint am in
        for _ = 1 to 3 do
          ignore
            (Dds.Call.call ep ~dst:(Cluster.Node.addr dst) ~id
               (Bytes.of_string "abcd") ~reply:(Bytes.create 4)
              : int);
          note what
        done
      in
      Cluster.Node.spawn home (fun () ->
          for _ = 1 to 30 do
            Cluster.Cpu.use cpu ~category:"user" (Sim.Time.us 9);
            note "user";
            Sim.Proc.wait (Sim.Time.us 4)
          done);
      Cluster.Node.spawn home (fun () -> call am_home ~dst:peer ~id:0x61 "home call");
      Cluster.Node.spawn home (fun () ->
          let dst =
            Rmem.Remote_memory.buffer ~space:d.Rig.space1 ~base:8192 ~len:256
          in
          for _ = 1 to 2 do
            Rmem.Remote_memory.read_wait d.Rig.rmem1 back ~soff:0 ~count:64 ~dst
              ~doff:0 ();
            note "home read"
          done);
      Cluster.Node.spawn peer (fun () ->
          call am_peer ~dst:home ~id:0x60 "peer call";
          (* Request id 1 again, then a message with no reply. *)
          let dup = Bytes.make 8 'd' in
          Bytes.set_int32_le dup 0 1l;
          Amsg.send am_peer ~dst:(Cluster.Node.addr home) ~handler:0x60 dup;
          Amsg.send am_peer ~dst:(Cluster.Node.addr home) ~handler:0x62 Bytes.empty;
          note "peer sent");
      Cluster.Node.spawn peer (fun () ->
          let dst = Rig.buffer0 ~len:256 d in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 32 'w');
          for _ = 1 to 2 do
            Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:128 ~dst
              ~doff:0 ();
            note "peer read"
          done;
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0
               ~new_value:1 ()
              : int);
          note "peer cas");
      Sim.Proc.wait (Sim.Time.ms 2));
  let log = List.rev !log in
  Alcotest.(check (list (pair string int)))
    "every step at a dispatcher process's instants"
    [ ("user", 1_329_000); ("peer served", 1_348_800); ("served", 1_353_400);
      ("user", 1_362_400); ("user", 1_378_400); ("user", 1_394_700);
      ("peer call", 1_401_800); ("user", 1_416_800); ("user", 1_433_000);
      ("user", 1_479_800); ("home call", 1_488_100); ("user", 1_497_100);
      ("peer read", 1_514_287); ("home read", 1_517_800); ("user", 1_534_100);
      ("peer served", 1_536_929); ("served", 1_542_400); ("user", 1_560_200);
      ("user", 1_576_200); ("user", 1_592_500); ("peer call", 1_595_329);
      ("user", 1_608_700); ("user", 1_655_500); ("home call", 1_663_800);
      ("user", 1_672_800); ("peer read", 1_689_987); ("home read", 1_693_500);
      ("user", 1_709_800); ("peer served", 1_712_629); ("served", 1_718_100);
      ("user", 1_727_100); ("user", 1_743_100); ("user", 1_759_400);
      ("peer call", 1_762_229); ("peer sent", 1_775_729); ("user", 1_778_150);
      ("home call", 1_790_150); ("peer cas", 1_790_979); ("user", 1_799_150);
      ("user", 1_816_450); ("user", 1_832_750); ("one-way", 1_839_950);
      ("user", 1_848_950); ("user", 1_861_950); ("user", 1_874_950);
      ("user", 1_887_950); ("user", 1_900_950); ("user", 1_913_950);
      ("user", 1_926_950) ]
    log;
  check_int "served once per fresh request" 3
    (List.length (List.filter (fun (w, _) -> w = "served") log));
  check_int "events" 243 (Sim.Engine.events_fired d.Rig.engine);
  check_int "busy time" 1_395_950 (Sim.Time.to_ns (Cluster.Cpu.busy_time cpu));
  Alcotest.(check (list (pair string (float 0.)))) "accounts"
    [ ("emulation", 985.5500000000001); ("user", 270.); ("client", 51.099999999999994);
      ("data reception", 65.3); ("procedure invocation", 24.) ]
    (Metrics.Account.to_list (Cluster.Cpu.account cpu));
  check_int "home handler cpu" 134_000 (Sim.Time.to_ns (Amsg.handler_cpu am_home));
  check_int "peer handler cpu" 36_700 (Sim.Time.to_ns (Amsg.handler_cpu am_peer))

(* While a handler's charge waits for a busy CPU it is listed as the
   node's dispatcher process was: "<addr> rx-dispatcher", blocked on
   the CPU.  A run stopped there names it, and only it, in its deadlock
   report. *)
let dispatcher_blocked_on_cpu () =
  let testbed, a0, a1 = rig () in
  let engine = Cluster.Testbed.engine testbed in
  let home = Cluster.Testbed.node testbed 0 in
  let name = Atm.Addr.to_string (Cluster.Node.addr home) in
  Amsg.register a0 ~id:1 (fun ~src:_ _ ~pos:_ ~len:_ -> Sim.Time.us 5);
  match
    Cluster.Testbed.run testbed (fun () ->
        Cluster.Node.spawn home (fun () ->
            Cluster.Cpu.use (Cluster.Node.cpu home) ~category:"hog" (Sim.Time.ms 10));
        Amsg.send a1 ~dst:(Cluster.Node.addr home) ~handler:1 Bytes.empty;
        Sim.Engine.schedule_at engine
          (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 1))
          (fun () -> Sim.Engine.stop engine);
        Sim.Proc.wait (Sim.Time.ms 5))
  with
  | () -> Alcotest.fail "expected the stopped run to report its waiters"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check (list (pair string string)))
        "the dispatcher, blocked on its CPU"
        [ (name ^ " rx-dispatcher", Printf.sprintf "resource %S" name) ]
        (List.map
           (fun (b : Sim.Engine.blocked) -> (b.process, b.resource))
           blocked)

(* Serving a request costs the host nothing: its reception, handler,
   span and reply, and the reply's reception, are charges at interrupt
   level, with no process switch at either end (a dispatcher process
   paid 2 words a suspension).  The client's NIC injects each pooled
   request outside every process, and the engine runs until it is
   served and answered. *)
let serve_allocation_budget () =
  let testbed, a0, a1 = rig () in
  let server = Cluster.Testbed.node testbed 0 in
  let client = Cluster.Testbed.node testbed 1 in
  let engine = Cluster.Testbed.engine testbed in
  Amsg.register a0 ~id:1 (fun ~src:_ _ ~pos:_ ~len ->
      Amsg.reply a0 ~handler:2 (Amsg.frame a0 ~len);
      Sim.Time.us 5);
  Amsg.register a1 ~id:2 (fun ~src:_ _ ~pos:_ ~len:_ -> Sim.Time.zero);
  let request () =
    let f = Amsg.frame a1 ~len:12 in
    let b = Atm.Frame.payload f in
    Bytes.set_uint8 b 0 0x28;
    Bytes.set_uint8 b 1 1;
    Bytes.set_uint16_le b 2 12;
    Cluster.Node.transmit_frame client ~dst:(Cluster.Node.addr server) f;
    Sim.Engine.run engine
  in
  let words = Rig.words_per_op ~n:200 request in
  check_int "every request answered" 201 (Amsg.sent a0);
  Rig.within_budget "Amsg request served with a reply, server side" ~words
    ~budget:0.15

let suite =
  [
    Alcotest.test_case "handler runs with args" `Quick handler_runs_with_args;
    Alcotest.test_case "request/reply round trip" `Quick request_reply_round_trip;
    Alcotest.test_case "unknown handler fails" `Quick unknown_handler_fails;
    Alcotest.test_case "register validation" `Quick register_validation;
    Alcotest.test_case "handler cpu tracked" `Quick handler_cpu_is_tracked;
    Alcotest.test_case "truncated frames refused" `Quick
      truncated_frames_refused;
    Alcotest.test_case "handler id checked at send" `Quick
      handler_id_checked_at_send;
    Alcotest.test_case "frames keep a dispatcher process's schedule" `Quick
      schedule_kept;
    Alcotest.test_case "dispatcher blocked on the CPU is reported" `Quick
      dispatcher_blocked_on_cpu;
    Alcotest.test_case "served request allocation budget" `Quick
      serve_allocation_budget;
  ]
