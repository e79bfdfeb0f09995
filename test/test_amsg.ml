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
      received := (Atm.Addr.to_int src, Bytes.sub_string args pos len) :: !received);
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
  Amsg.register a0 ~id:1 (fun ~src args ~pos ~len ->
      (* Double each byte and send the result back. *)
      let doubled =
        Bytes.map
          (fun c -> Char.chr (2 * Char.code c land 0xFF))
          (Bytes.sub args pos len)
      in
      Amsg.send a0 ~dst:src ~handler:2 doubled);
  Amsg.register a1 ~id:2 (fun ~src:_ args ~pos ~len ->
      Cluster.Address_space.write_from client_space ~addr:4 args ~pos ~len;
      Cluster.Address_space.write_word client_space ~addr:0 1);
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
  Amsg.register a0 ~id:7 (fun ~src:_ _ ~pos:_ ~len:_ -> ());
  check_bool "duplicate id rejected" true
    (try
       Amsg.register a0 ~id:7 (fun ~src:_ _ ~pos:_ ~len:_ -> ());
       false
     with Invalid_argument _ -> true)

let handler_cpu_is_tracked () =
  let testbed, a0, a1 = rig () in
  Amsg.register a0 ~id:1 (fun ~src:_ _ ~pos:_ ~len:_ ->
      Cluster.Cpu.use
        (Cluster.Node.cpu (Cluster.Testbed.node testbed 0))
        ~category:Cluster.Cpu.cat_procedure (Sim.Time.us 50));
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
    Amsg.register a0 ~id:4 (fun ~src:_ _ ~pos:_ ~len:_ -> ran := true);
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
  ]
