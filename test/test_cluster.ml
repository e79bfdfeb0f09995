(* Tests for the cluster layer: address spaces, CPU, kernel helpers. *)

let check_int = Alcotest.(check int)

(* ---------------- Address spaces ---------------- *)

let space () = Cluster.Address_space.create ~asid:1 ()

let space_roundtrip =
  QCheck.Test.make ~name:"address space write/read roundtrip" ~count:300
    QCheck.(pair (int_bound 20000) (string_of_size Gen.(1 -- 9000)))
    (fun (addr, payload) ->
      let s = space () in
      let data = Bytes.of_string payload in
      Cluster.Address_space.write s ~addr data;
      let back =
        Cluster.Address_space.read s ~addr ~len:(Bytes.length data)
      in
      Bytes.equal back data)

(* The offset blits agree with [read] and [write]: [write_from] stores
   exactly the sub-range [write] would store after cutting it out, and
   [read_into] lands exactly [read]'s bytes at the offset, leaving the
   rest of the destination alone. *)
let space_offset_blits =
  QCheck.Test.make ~name:"address space offset blits agree with read/write"
    ~count:300
    QCheck.(
      quad (int_bound 20000) (string_of_size Gen.(0 -- 9000)) (int_bound 16)
        (int_bound 16))
    (fun (addr, payload, pre, post) ->
      let data = Bytes.of_string payload in
      let len = Bytes.length data in
      let framed = Bytes.concat Bytes.empty [ Bytes.make pre 'a'; data; Bytes.make post 'z' ] in
      let via_blit = space () and via_write = space () in
      Cluster.Address_space.write_from via_blit ~addr framed ~pos:pre ~len;
      Cluster.Address_space.write via_write ~addr data;
      let dst = Bytes.make (pre + len + post) '#' in
      Cluster.Address_space.read_into via_blit ~addr ~len dst ~pos:pre;
      Bytes.equal
        (Cluster.Address_space.read via_blit ~addr:(max 0 (addr - 8)) ~len:(len + 16))
        (Cluster.Address_space.read via_write ~addr:(max 0 (addr - 8)) ~len:(len + 16))
      && Bytes.equal (Bytes.sub dst pre len) (Cluster.Address_space.read via_write ~addr ~len)
      && Bytes.equal (Bytes.sub dst 0 pre) (Bytes.make pre '#')
      && Bytes.equal (Bytes.sub dst (pre + len) post) (Bytes.make post '#'))

let space_demand_zero () =
  let s = space () in
  let b = Cluster.Address_space.read s ~addr:123456 ~len:64 in
  Alcotest.(check bytes) "zeros" (Bytes.make 64 '\000') b

(* A write that covers whole pages it creates fills them from its
   source alone: they read back exactly, the partial pages at its two
   ends keep zeros outside it, and the pages around it read as zeros. *)
let space_whole_page_write () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let len = (2 * page) + 300 in
  let data = Bytes.init len (fun i -> Char.chr (1 + (i mod 251))) in
  let addr = (4 * page) - 100 in
  Cluster.Address_space.write s ~addr data;
  Alcotest.(check bytes) "reads back" data
    (Cluster.Address_space.read s ~addr ~len);
  check_int "four pages resident" 4 (Cluster.Address_space.resident_pages s);
  let zeros n = Bytes.make n '\000' in
  Alcotest.(check bytes) "before it, in its first page" (zeros (page - 100))
    (Cluster.Address_space.read s ~addr:(3 * page) ~len:(page - 100));
  let stop = addr + len in
  Alcotest.(check bytes) "after it, in its last page"
    (zeros ((7 * page) - stop))
    (Cluster.Address_space.read s ~addr:stop ~len:((7 * page) - stop));
  Alcotest.(check bytes) "the pages around it" (zeros page)
    (Cluster.Address_space.read s ~addr:(2 * page) ~len:page);
  Alcotest.(check bytes) "the page after it" (zeros page)
    (Cluster.Address_space.read s ~addr:(7 * page) ~len:page);
  (* A first write of exactly one whole page. *)
  let one = Bytes.init page (fun i -> Char.chr (255 - (i mod 200))) in
  Cluster.Address_space.write s ~addr:(10 * page) one;
  Alcotest.(check bytes) "one whole page" one
    (Cluster.Address_space.read s ~addr:(10 * page) ~len:page);
  Alcotest.(check bytes) "its neighbours" (zeros (2 * page))
    (Bytes.cat
       (Cluster.Address_space.read s ~addr:(9 * page) ~len:page)
       (Cluster.Address_space.read s ~addr:(11 * page) ~len:page))

let space_cross_page () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let data = Bytes.init 100 (fun i -> Char.chr (i land 0xFF)) in
  Cluster.Address_space.write s ~addr:(page - 50) data;
  Alcotest.(check bytes) "spans pages" data
    (Cluster.Address_space.read s ~addr:(page - 50) ~len:100);
  check_int "two pages resident" 2 (Cluster.Address_space.resident_pages s)

let space_words_and_cas () =
  let s = space () in
  Cluster.Address_space.write_word s ~addr:16 7;
  check_int "word" 7 (Cluster.Address_space.read_word s ~addr:16);
  Alcotest.(check bool) "cas succeeds" true
    (Cluster.Address_space.cas_word s ~addr:16 ~old_value:7 ~new_value:9);
  Alcotest.(check bool) "cas fails" false
    (Cluster.Address_space.cas_word s ~addr:16 ~old_value:7 ~new_value:11);
  check_int "value kept" 9 (Cluster.Address_space.read_word s ~addr:16)

(* A word across a page boundary goes a byte at a time; it must agree
   with the in-page path, little-endian, sign and all: a word reads back
   sign-extended, and a write or compare takes the low 32 bits. *)
let space_words_straddle () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let addr = page - 2 in
  Cluster.Address_space.write_word s ~addr 0xDEADBEEF;
  check_int "word" (0xDEADBEEF - 0x1_0000_0000)
    (Cluster.Address_space.read_word s ~addr);
  Alcotest.(check bytes) "little-endian bytes" (Bytes.of_string "\xEF\xBE\xAD\xDE")
    (Cluster.Address_space.read s ~addr ~len:4);
  Alcotest.(check bool) "cas succeeds" true
    (Cluster.Address_space.cas_word s ~addr ~old_value:0xDEADBEEF ~new_value:(-2));
  Alcotest.(check bool) "cas fails" false
    (Cluster.Address_space.cas_word s ~addr ~old_value:0xDEADBEEF ~new_value:5);
  check_int "value kept" (-2) (Cluster.Address_space.read_word s ~addr);
  Alcotest.(check bytes) "stored as its low 32 bits" (Bytes.of_string "\xFE\xFF\xFF\xFF")
    (Cluster.Address_space.read s ~addr ~len:4);
  Cluster.Address_space.write s ~addr (Bytes.of_string "\x01\x02\x03\x04");
  check_int "bytes read as a word" 0x04030201
    (Cluster.Address_space.read_word s ~addr)

(* Every frame's payload passes through these copies, so they must
   allocate nothing beyond the destination the caller supplies — even
   across a page boundary. *)
let space_copies_allocate_nothing () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let buf = Bytes.make 2048 'c' in
  let write =
    Rig.words_per_op ~n:1000 (fun () ->
        Cluster.Address_space.write_from s ~addr:(page - 700) buf ~pos:8 ~len:1500)
  in
  let read =
    Rig.words_per_op ~n:1000 (fun () ->
        Cluster.Address_space.read_into s ~addr:(page - 700) ~len:1500 buf ~pos:8)
  in
  Rig.within_budget "cross-page write_from" ~words:write ~budget:0.4;
  Rig.within_budget "cross-page read_into" ~words:read ~budget:0.4

(* The word accessors pass the word as an int, in a page and across a
   page boundary: no int32 is boxed on the way in or out. *)
let space_words_allocate_nothing () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let words_at addr =
    Rig.words_per_op ~n:1000 (fun () ->
        Cluster.Address_space.write_word s ~addr 7;
        ignore (Cluster.Address_space.read_word s ~addr : int);
        ignore
          (Cluster.Address_space.cas_word s ~addr ~old_value:7 ~new_value:9
            : bool))
  in
  Rig.within_budget "word write + read + cas" ~words:(words_at 64) ~budget:0.1;
  Rig.within_budget "straddling word write + read + cas"
    ~words:(words_at (page - 2)) ~budget:0.1

let space_pinning () =
  let s = space () in
  let page = Cluster.Address_space.page_size s in
  let pages = Cluster.Address_space.pin s ~addr:100 ~len:(page + 200) in
  check_int "two pages pinned" 2 pages;
  Alcotest.(check bool) "pinned" true
    (Cluster.Address_space.is_pinned s ~addr:100 ~len:page);
  Alcotest.(check bool) "beyond not pinned" false
    (Cluster.Address_space.is_pinned s ~addr:(3 * page) ~len:10);
  (* Pins nest. *)
  ignore (Cluster.Address_space.pin s ~addr:0 ~len:10 : int);
  Cluster.Address_space.unpin s ~addr:100 ~len:(page + 200);
  Alcotest.(check bool) "first page still pinned by second pin" true
    (Cluster.Address_space.is_pinned s ~addr:0 ~len:10);
  Cluster.Address_space.unpin s ~addr:0 ~len:10;
  Alcotest.(check bool) "all unpinned" false
    (Cluster.Address_space.is_pinned s ~addr:0 ~len:10);
  Alcotest.check_raises "over-unpin"
    (Invalid_argument "Address_space.unpin: page not pinned") (fun () ->
      Cluster.Address_space.unpin s ~addr:0 ~len:10)

let space_fault () =
  let s = space () in
  Alcotest.(check bool) "negative address faults" true
    (try
       ignore (Cluster.Address_space.read s ~addr:(-1) ~len:4);
       false
     with Cluster.Address_space.Fault _ -> true)

(* ---------------- CPU ---------------- *)

let cpu_accounting () =
  let engine = Sim.Engine.create () in
  let cpu = Cluster.Cpu.create () in
  Sim.Proc.run engine (fun () ->
      Cluster.Cpu.use cpu ~category:"a" (Sim.Time.us 10);
      Cluster.Cpu.use cpu ~category:"b" (Sim.Time.us 5);
      Cluster.Cpu.use cpu ~category:"a" (Sim.Time.us 1));
  check_int "busy 16us" (Sim.Time.us 16) (Cluster.Cpu.busy_time cpu);
  Alcotest.(check (float 1e-6)) "a = 11us" 11.
    (Metrics.Account.total_of (Cluster.Cpu.account cpu) "a");
  Alcotest.(check (float 1e-6)) "util over 32us" 0.5
    (Cluster.Cpu.utilization cpu ~window:(Sim.Time.us 32))

let cpu_serializes () =
  let engine = Sim.Engine.create () in
  let cpu = Cluster.Cpu.create () in
  let finish = ref [] in
  for i = 1 to 3 do
    Sim.Proc.spawn engine (fun () ->
        Cluster.Cpu.use cpu ~category:"work" (Sim.Time.us 10);
        finish := (i, Sim.Engine.now engine) :: !finish)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "FIFO completion at 10/20/30us"
    [ (1, Sim.Time.us 10); (2, Sim.Time.us 20); (3, Sim.Time.us 30) ]
    (List.rev !finish)

(* One CPU shared by process [Cpu.use] callers and interrupt-level
   charge chains ([Cpu.charge]) keeps the schedule of an all-process
   run: each user starts at its instant and makes its charges in turn,
   logging (user, charge, instant) as each one ends.  The log (whose
   order is the same-instant order too), the events fired, the busy
   time and each category's account must equal those of the same users
   all run as processes.  The users cover a chain queued behind a
   process and a process queued behind a chain, a handoff to a queued
   chain while the CPU is busy, a user arriving at the instant another's
   span ends, a zero span, and a user charging again with nobody
   queued; the kinds are run as given and swapped. *)
let cpu_mixed_schedule () =
  let users =
    [ (`Chain, 0, [ ("a", 10); ("b", 3); ("a", 2) ]);
      (`Proc, 0, [ ("b", 5); ("a", 4) ]);
      (`Chain, 2, [ ("a", 1); ("a", 1) ]);
      (`Proc, 10, [ ("b", 2) ]);
      (`Chain, 13, [ ("a", 0); ("b", 1) ]);
      (`Proc, 13, [ ("a", 1) ]);
      (`Chain, 100, [ ("a", 1); ("b", 2) ]) ]
  in
  let run kinds =
    let engine = Sim.Engine.create () in
    let cpu = Cluster.Cpu.create () in
    let log = ref [] in
    let note u i = log := (u, i, Sim.Engine.now engine) :: !log in
    List.iteri
      (fun u (kind, start, charges) ->
        let at = Sim.Time.us start in
        match kinds u kind with
        | `Proc ->
            Sim.Engine.schedule_at engine at (fun () ->
                Sim.Proc.spawn engine (fun () ->
                    List.iteri
                      (fun i (category, span) ->
                        Cluster.Cpu.use cpu ~category (Sim.Time.us span);
                        note u i)
                      charges))
        | `Chain ->
            let c =
              Cluster.Cpu.charger cpu engine (Sim.Engine.Text "chain") ()
            in
            let rec step i = function
              | [] -> ()
              | (category, span) :: rest ->
                  Cluster.Cpu.charge c ~category (Sim.Time.us span) (fun () ->
                      note u i;
                      step (i + 1) rest)
            in
            Sim.Engine.schedule_at engine at (fun () ->
                Sim.Engine.schedule engine (fun () -> step 0 charges)))
      users;
    Sim.Engine.run engine;
    let total = Metrics.Account.total_of (Cluster.Cpu.account cpu) in
    ( List.rev !log,
      Sim.Engine.events_fired engine,
      Sim.Time.to_ns (Cluster.Cpu.busy_time cpu),
      (total "a", total "b") )
  in
  let all_proc = run (fun _ _ -> `Proc) in
  let swap = function `Proc -> `Chain | `Chain -> `Proc in
  List.iter
    (fun (what, kinds) ->
      let log, events, busy, accounts = run kinds in
      let log0, events0, busy0, accounts0 = all_proc in
      Alcotest.(check (list (triple int int int)))
        (what ^ ": every charge ends at the same instant, in the same order")
        log0 log;
      check_int (what ^ ": the same events") events0 events;
      check_int (what ^ ": busy time") busy0 busy;
      Alcotest.(check (pair (float 0.) (float 0.)))
        (what ^ ": per-category accounts") accounts0 accounts)
    [ ("as given", fun _ kind -> kind); ("swapped", fun _ kind -> swap kind) ];
  let log, _, busy, _ = all_proc in
  check_int "busy 33us" (Sim.Time.us 33) busy;
  check_int "every charge made" 13 (List.length log)

(* ---------------- Kernel helpers and LRPC ---------------- *)

let with_node body =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let node = Cluster.Testbed.node testbed 0 in
  Cluster.Testbed.run testbed (fun () -> body testbed node)

let kernel_syscall_cost () =
  with_node (fun testbed node ->
      let engine = Cluster.Testbed.engine testbed in
      let t0 = Sim.Engine.now engine in
      let v = Cluster.Kernel.syscall node ~name:"test" (fun () -> 41 + 1) in
      check_int "result" 42 v;
      check_int "cost = syscall"
        (Sim.Time.to_ns (Cluster.Node.costs (Cluster.Testbed.node testbed 0)).Cluster.Costs.syscall)
        (Sim.Time.diff (Sim.Engine.now engine) t0))

let lrpc_cost () =
  with_node (fun testbed node ->
      let engine = Cluster.Testbed.engine testbed in
      let t0 = Sim.Engine.now engine in
      let v = Cluster.Lrpc.call node (fun x -> x * 2) 21 in
      check_int "result" 42 v;
      let expected =
        2 * Sim.Time.to_ns (Cluster.Node.costs (Cluster.Testbed.node testbed 0)).Cluster.Costs.lrpc_half
      in
      check_int "round trip" expected (Sim.Time.diff (Sim.Engine.now engine) t0))

let node_demux_and_crash () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let received = ref 0 in
  Cluster.Node.set_handler node1 ~tag:0x42 (fun ~src:_ _payload -> incr received);
  Alcotest.check_raises "tag already claimed"
    (Invalid_argument "Node.set_handler: tag already claimed") (fun () ->
      Cluster.Node.set_handler node1 ~tag:0x42 (fun ~src:_ _ -> ()));
  Cluster.Testbed.run testbed (fun () ->
      let payload = Bytes.make 4 '\x42' in
      Cluster.Node.transmit node0 ~dst:(Cluster.Node.addr node1) payload;
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "delivered" 1 !received;
      (* Crash the node: frames are absorbed silently. *)
      Cluster.Node.set_down node1 true;
      Cluster.Node.transmit node0 ~dst:(Cluster.Node.addr node1) payload;
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "dropped while down" 1 !received;
      Cluster.Node.set_down node1 false;
      Cluster.Node.transmit node0 ~dst:(Cluster.Node.addr node1) payload;
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "delivered after revival" 2 !received)

(* A node takes its frames in arrival order whatever their level: a
   burst of interrupt-level (0x40) and process-level (0x41) frames
   queued behind one another, then one of each reaching an idle node,
   are served with the log, events, busy time and accounts they get
   when both tags' handlers run in the dispatcher process, and those
   are what a dispatcher process that parked per frame gave: the
   instants each frame's first charge ends and the 33 events. *)
let node_levels_keep_the_schedule () =
  let run ~interrupt =
    let testbed = Cluster.Testbed.create ~nodes:2 () in
    let engine = Cluster.Testbed.engine testbed in
    let node0 = Cluster.Testbed.node testbed 0 in
    let node1 = Cluster.Testbed.node testbed 1 in
    let cpu = Cluster.Node.cpu node1 in
    let log = ref [] in
    let note tag i step = log := (tag, i, step, Sim.Engine.now engine) :: !log in
    let by_process tag =
      Cluster.Node.set_handler node1 ~tag (fun ~src:_ payload ->
          let i = Bytes.get_uint8 payload 1 in
          Cluster.Cpu.use cpu ~category:"a" (Sim.Time.us 20);
          note tag i 0;
          Cluster.Cpu.use cpu ~category:"b" (Sim.Time.us 5);
          note tag i 1)
    in
    by_process 0x41;
    (if interrupt then
       let c = Cluster.Node.charger node1 () in
       Cluster.Node.set_interrupt_handler node1 ~tag:0x40 (fun ~src:_ payload ->
           let i = Bytes.get_uint8 payload 1 in
           Cluster.Cpu.charge c ~category:"a" (Sim.Time.us 20) (fun () ->
               note 0x40 i 0;
               Cluster.Cpu.charge c ~category:"b" (Sim.Time.us 5) (fun () ->
                   note 0x40 i 1;
                   Cluster.Node.dispatched node1)))
     else by_process 0x40);
    Cluster.Testbed.run testbed (fun () ->
        let send tag i =
          let payload = Bytes.create 2 in
          Bytes.set_uint8 payload 0 tag;
          Bytes.set_uint8 payload 1 i;
          Cluster.Node.transmit node0 ~dst:(Cluster.Node.addr node1) payload
        in
        List.iteri (fun i tag -> send tag i) [ 0x40; 0x41; 0x41; 0x40; 0x40; 0x41 ];
        Sim.Proc.wait (Sim.Time.ms 1);
        send 0x40 6;
        Sim.Proc.wait (Sim.Time.ms 1);
        send 0x41 7;
        Sim.Proc.wait (Sim.Time.ms 1));
    let total = Metrics.Account.total_of (Cluster.Cpu.account cpu) in
    ( List.rev !log,
      Sim.Engine.events_fired engine,
      Sim.Time.to_ns (Cluster.Cpu.busy_time cpu),
      (total "a", total "b") )
  in
  let log0, events0, busy0, accounts0 = run ~interrupt:false in
  let log, events, busy, accounts = run ~interrupt:true in
  Alcotest.(check (list (list int)))
    "each frame's steps at the same instants, in the same order"
    (List.map (fun (tag, i, step, at) -> [ tag; i; step; at ]) log0)
    (List.map (fun (tag, i, step, at) -> [ tag; i; step; at ]) log);
  Alcotest.(check (list int)) "frames served in arrival order"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.filter_map (fun (_, i, step, _) -> if step = 0 then Some i else None) log);
  Alcotest.(check (list int)) "first charges end as a parking dispatcher's did"
    [ 23_529; 48_529; 73_529; 98_529; 123_529; 148_529; 1_023_529; 2_023_529 ]
    (List.filter_map (fun (_, _, step, at) -> if step = 0 then Some at else None) log0);
  check_int "a parking dispatcher's events" 33 events0;
  check_int "the same events" events0 events;
  check_int "busy time" busy0 busy;
  Alcotest.(check (pair (float 0.) (float 0.))) "accounts" accounts0 accounts

let costs_are_calibrated () =
  (* A sanity pin on the headline calibration constants. *)
  let c = Cluster.Costs.default in
  check_int "notification 260us" (Sim.Time.us 260) c.Cluster.Costs.notification;
  check_int "context switch 100us" (Sim.Time.us 100) c.Cluster.Costs.context_switch;
  Alcotest.(check bool) "cell copy cost positive" true
    (Cluster.Costs.cell_copy_cost c ~payload_bytes:48 > 0)

(* [proc_cost]'s integer rounding against the float formula it replaced,
   [base + round (per_kb * bytes / 1024)] with halves rounded away from
   zero: every product here is below 2^53, so the two agree exactly. *)
let proc_cost_matches_float =
  let c = Cluster.Costs.default in
  QCheck.Test.make ~name:"proc_cost integer form = float formula" ~count:1000
    QCheck.(
      triple (int_bound 1_000_000) (int_bound ((1 lsl 31) - 1))
        (int_bound (1 lsl 20)))
    (fun (base, per_kb, bytes) ->
      Cluster.Costs.proc_cost c ~base ~per_kb ~bytes
      = Sim.Time.add base (Sim.Time.scale per_kb (float_of_int bytes /. 1024.)))

let proc_cost_rounds_half_up () =
  let c = Cluster.Costs.default in
  let cost per_kb bytes = Cluster.Costs.proc_cost c ~base:0 ~per_kb ~bytes in
  check_int "0.5 ns rounds up" 1 (cost 1 512);
  check_int "1.5 ns rounds up" 2 (cost 1 1536);
  check_int "just under a half rounds down" 0 (cost 1 511);
  check_int "a whole KB" (Sim.Time.us 20) (cost (Sim.Time.us 20) 1024)

(* Pricing a frame's FIFO copy passes only ints across module
   boundaries: the copy-cost helpers allocate nothing. *)
let copy_costs_allocate_nothing () =
  let c = Cluster.Costs.default in
  let cell =
    Rig.words_per_op ~n:1000 (fun () ->
        ignore (Cluster.Costs.cell_copy_cost c ~payload_bytes:40 : Sim.Time.t))
  in
  let frame =
    Rig.words_per_op ~n:1000 (fun () ->
        ignore (Cluster.Costs.frame_copy_cost c ~payload_bytes:8192 : Sim.Time.t))
  in
  Rig.within_budget "Costs.cell_copy_cost" ~words:cell ~budget:0.1;
  Rig.within_budget "Costs.frame_copy_cost" ~words:frame ~budget:0.1

let suite =
  [
    Alcotest.test_case "space demand zero" `Quick space_demand_zero;
    Alcotest.test_case "space cross-page access" `Quick space_cross_page;
    Alcotest.test_case "space words and cas" `Quick space_words_and_cas;
    Alcotest.test_case "space words straddle a page" `Quick space_words_straddle;
    Alcotest.test_case "space copies allocate nothing" `Quick
      space_copies_allocate_nothing;
    Alcotest.test_case "space words allocate nothing" `Quick
      space_words_allocate_nothing;
    Alcotest.test_case "space pinning nests" `Quick space_pinning;
    Alcotest.test_case "space faults" `Quick space_fault;
    Alcotest.test_case "cpu accounting" `Quick cpu_accounting;
    Alcotest.test_case "cpu serializes holders" `Quick cpu_serializes;
    Alcotest.test_case "cpu charge chains keep the process schedule" `Quick
      cpu_mixed_schedule;
    Alcotest.test_case "node levels keep the dispatch schedule" `Quick
      node_levels_keep_the_schedule;
    Alcotest.test_case "kernel syscall cost" `Quick kernel_syscall_cost;
    Alcotest.test_case "lrpc round-trip cost" `Quick lrpc_cost;
    Alcotest.test_case "node demux and crash" `Quick node_demux_and_crash;
    Alcotest.test_case "calibration constants pinned" `Quick costs_are_calibrated;
    Alcotest.test_case "proc_cost rounds half up" `Quick proc_cost_rounds_half_up;
    Alcotest.test_case "copy costs allocate nothing" `Quick
      copy_costs_allocate_nothing;
    QCheck_alcotest.to_alcotest proc_cost_matches_float;
    QCheck_alcotest.to_alcotest space_roundtrip;
    QCheck_alcotest.to_alcotest space_offset_blits;
    Alcotest.test_case "space whole-page first write" `Quick
      space_whole_page_write;
  ]
