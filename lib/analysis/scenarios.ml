(* Compact, deterministic replays of the example workloads and the dds
   suite, each a prepare function split from the engine run (see the
   .mli).  Each builds its own testbed so runs are independent, at a
   size that keeps a race-check run instant. *)

type prep = {
  testbed : Cluster.Testbed.t;
  monitor : Monitor.t;
  finished : unit -> bool;
  invariants : (string * (unit -> bool)) list;
}

let setup ~nodes =
  let testbed = Cluster.Testbed.create ~nodes () in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let monitor = Monitor.create (Cluster.Testbed.engine testbed) in
  List.iter (Monitor.attach monitor) (Cluster.Testbed.nodes testbed);
  (testbed, rmems, monitor)

let import_segment rmem ~from segment ~rights =
  Rmem.Remote_memory.import rmem ~remote:from
    ~segment_id:(Rmem.Segment.id segment)
    ~generation:(Rmem.Segment.generation segment)
    ~size:(Rmem.Segment.length segment)
    ~rights ()

(* Spawn the workload main process and package the prep record.  The
   spawn happens exactly where [Proc.run] used to spawn its main
   process, so event sequence numbers — and therefore default-FIFO
   runs — are unchanged. *)
let wrap ~testbed ~monitor ?(invariants = []) body =
  let finished = ref false in
  Sim.Proc.spawn ~name:"main"
    (Cluster.Testbed.engine testbed)
    (fun () ->
      body ();
      finished := true);
  { testbed; monitor; finished = (fun () -> !finished); invariants }

(* ------------------------------------------------------------------ *)
(* kv_store: each client owns disjoint slots of the server table and
   put/fence/gets them.  No sharing, so nothing can race. *)

let kv_store () =
  let testbed, rmems, monitor = setup ~nodes:3 in
  let read_back_ok = ref true in
  wrap ~testbed ~monitor
    ~invariants:[ ("kv read-your-writes", fun () -> !read_back_ok) ]
    (fun () ->
      let server = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space server in
      let table =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"kv table" ()
      in
      let done_ = Sim.Ivar.create ~name:"kv done" () in
      let finished = ref 0 in
      for c = 1 to 2 do
        let node = Cluster.Testbed.node testbed c in
        Cluster.Node.spawn node (fun () ->
            let rmem = rmems.(c) in
            let desc =
              import_segment rmem ~from:(Cluster.Node.addr server) table
                ~rights:Rmem.Rights.all
            in
            let my_space = Cluster.Node.new_address_space node in
            let buf =
              Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:64
            in
            for k = 0 to 3 do
              let off = (c * 512) + (k * 64) in
              Rmem.Remote_memory.write rmem desc ~off
                (Bytes.make 64 (Char.chr (0x30 + c)));
              Rmem.Remote_memory.fence rmem desc;
              Rmem.Remote_memory.read_wait rmem desc ~soff:off ~count:64
                ~dst:buf ~doff:0 ();
              let got = Cluster.Address_space.read my_space ~addr:0 ~len:64 in
              if got <> Bytes.make 64 (Char.chr (0x30 + c)) then
                read_back_ok := false
            done;
            incr finished;
            if !finished = 2 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_)

(* ------------------------------------------------------------------ *)
(* producer_consumer: CAS-ticket slot claims, WRITE deliveries, notify
   doorbells.  The ring holds every item (no slot reuse) and the
   consumer touches exactly the slot each doorbell names, so all
   cross-agent edges flow through the notification channel. *)

let pc_slot_bytes = 64
let pc_items_per_producer = 4
let pc_total = 2 * pc_items_per_producer
let pc_slot_off seq = 64 + (seq * pc_slot_bytes)

let producer_consumer () =
  let testbed, rmems, monitor = setup ~nodes:3 in
  let lens_sane = ref true in
  wrap ~testbed ~monitor
    ~invariants:[ ("consumed lengths sane", fun () -> !lens_sane) ]
    (fun () ->
      let consumer_node = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space consumer_node in
      let ring =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0
          ~len:(64 + (pc_total * pc_slot_bytes))
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional ~name:"ring"
          ()
      in
      let done_ = Sim.Ivar.create ~name:"pc done" () in
      let fd = Rmem.Segment.notification ring in
      Cluster.Node.spawn consumer_node (fun () ->
          for _ = 1 to pc_total do
            let record = Rmem.Notification.wait fd in
            (* Consume the one slot this doorbell announced. *)
            let slot = record.Rmem.Notification.off in
            let len = Cluster.Address_space.read_word space ~addr:slot in
            if len <= 0 || len > pc_slot_bytes - 4 then lens_sane := false;
            let (_ : bytes) =
              Cluster.Address_space.read space ~addr:(slot + 4) ~len
            in
            Monitor.local_access monitor ~node:consumer_node ~segment:ring
              ~kind:Access.Load ~off:slot ~count:pc_slot_bytes ()
          done;
          Sim.Ivar.fill done_ ());
      let finished = ref 0 in
      for p = 1 to 2 do
        let node = Cluster.Testbed.node testbed p in
        Cluster.Node.spawn node (fun () ->
            let rmem = rmems.(p) in
            let desc =
              import_segment rmem
                ~from:(Cluster.Node.addr consumer_node)
                ring ~rights:Rmem.Rights.all
            in
            let my_space = Cluster.Node.new_address_space node in
            let buf =
              Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:4
            in
            for i = 1 to pc_items_per_producer do
              (* Claim a sequence number with a CAS ticket. *)
              let seq = ref (-1) in
              while !seq < 0 do
                Rmem.Remote_memory.read_wait rmem desc ~soff:0 ~count:4
                  ~dst:buf ~doff:0 ();
                let ticket = Cluster.Address_space.read_word my_space ~addr:0 in
                let witness =
                  Rmem.Remote_memory.cas_wait rmem desc ~doff:0
                    ~old_value:ticket
                    ~new_value:(ticket + 1) ()
                in
                if witness = ticket then seq := ticket
              done;
              let slot = pc_slot_off !seq in
              let item = Printf.sprintf "item %d.%d" p i in
              Rmem.Remote_memory.write rmem desc ~off:(slot + 4)
                (Bytes.of_string item);
              (* Length word last, doorbell on it. *)
              let flag = Bytes.create 4 in
              Bytes.set_int32_le flag 0 (Int32.of_int (String.length item));
              Rmem.Remote_memory.write rmem desc ~off:slot ~notify:true flag
            done;
            incr finished)
      done;
      Sim.Ivar.read done_)

(* ------------------------------------------------------------------ *)
(* file_service: two clients update the SAME block of a file server
   under a CAS lock, with the paper's required fence before release —
   every WRITE is deposited before the lock can move on. *)

let file_service_with ~fence () =
  let testbed, rmems, monitor = setup ~nodes:3 in
  let server_space = ref None in
  let block_untorn () =
    match !server_space with
    | None -> true
    | Some space ->
        let block = Cluster.Address_space.read space ~addr:1024 ~len:256 in
        let first = Bytes.get block 0 in
        let same = ref true in
        Bytes.iter (fun c -> if c <> first then same := false) block;
        !same
  in
  wrap ~testbed ~monitor
    ~invariants:[ ("file block untorn", block_untorn) ]
    (fun () ->
      let server = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space server in
      server_space := Some space;
      let blocks =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"file blocks" ()
      in
      let done_ = Sim.Ivar.create ~name:"fs done" () in
      let finished = ref 0 in
      for c = 1 to 2 do
        let node = Cluster.Testbed.node testbed c in
        Cluster.Node.spawn node (fun () ->
            let rmem = rmems.(c) in
            let desc =
              import_segment rmem ~from:(Cluster.Node.addr server) blocks
                ~rights:Rmem.Rights.all
            in
            let me = c in
            for _round = 1 to 2 do
              (* Acquire the lock word at offset 0. *)
              let held = ref false in
              while not !held do
                let witness =
                  Rmem.Remote_memory.cas_wait rmem desc ~doff:0 ~old_value:0
                    ~new_value:me ()
                in
                if witness = 0 then held := true
                else Sim.Proc.wait (Sim.Time.us 200)
              done;
              Rmem.Remote_memory.write rmem desc ~off:1024
                (Bytes.make 256 (Char.chr (0x40 + c)));
              if fence then Rmem.Remote_memory.fence rmem desc;
              let witness =
                Rmem.Remote_memory.cas_wait rmem desc ~doff:0 ~old_value:me
                  ~new_value:0 ()
              in
              assert (witness = me)
            done;
            incr finished;
            if !finished = 2 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_)

(* ------------------------------------------------------------------ *)
(* name_service: a clerk-mediated lookup, then two protocol sins — a
   descriptor kept across a revoke/re-export (stale generation) and a
   reader polling a notify:never segment. *)

let name_service () =
  let testbed, rmems, monitor = setup ~nodes:2 in
  let clerks = ref [] in
  let registries_well_formed () =
    List.for_all
      (fun clerk -> Names.Registry.well_formed (Names.Clerk.registry clerk))
      !clerks
  in
  wrap ~testbed ~monitor
    ~invariants:[ ("registries well-formed", registries_well_formed) ]
    (fun () ->
      let node0 = Cluster.Testbed.node testbed 0 in
      let node1 = Cluster.Testbed.node testbed 1 in
      let clerk0 = Names.Clerk.create rmems.(0) in
      let clerk1 = Names.Clerk.create rmems.(1) in
      clerks := [ clerk0; clerk1 ];
      Names.Clerk.serve_lookup_requests clerk0;
      Names.Clerk.serve_lookup_requests clerk1;
      let space0 = Cluster.Node.new_address_space node0 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export clerk0 ~space:space0 ~base:0 ~len:256
          ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Never
          ~name:"status" ()
      in
      let epoch =
        Rmem.Remote_memory.export rmems.(0) ~space:space0 ~base:1024 ~len:256
          ~id:7 ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Conditional
          ~name:"epoch" ()
      in
      let first_read_done = Sim.Ivar.create ~name:"first read done" () in
      let reexported = Sim.Ivar.create ~name:"reexported" () in
      let done_ = Sim.Ivar.create ~name:"ns done" () in
      Cluster.Node.spawn node1 (fun () ->
          let rmem = rmems.(1) in
          let my_space = Cluster.Node.new_address_space node1 in
          let buf = Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:64 in
          let desc =
            import_segment rmem ~from:(Cluster.Node.addr node0) epoch
              ~rights:Rmem.Rights.read_only
          in
          Rmem.Remote_memory.read_wait rmem desc ~soff:0 ~count:32 ~dst:buf
            ~doff:0 ();
          Sim.Ivar.fill first_read_done ();
          Sim.Ivar.read reexported;
          (* The sin: keep using the descriptor across the re-export. *)
          (match
             Rmem.Remote_memory.read_wait rmem desc ~soff:0 ~count:32 ~dst:buf
               ~doff:0 ()
           with
          | () -> assert false
          | exception Rmem.Status.Remote_error Rmem.Status.Stale_generation ->
              ());
          (* The other sin: poll a notify:never segment. *)
          let status =
            Names.Api.import ~hint:(Cluster.Node.addr node0) clerk1 "status"
          in
          for _ = 1 to 12 do
            Rmem.Remote_memory.read_wait rmem status ~soff:0 ~count:4 ~dst:buf
              ~doff:0 ();
            Sim.Proc.wait (Sim.Time.us 100)
          done;
          Sim.Ivar.fill done_ ());
      Sim.Ivar.read first_read_done;
      Rmem.Remote_memory.revoke rmems.(0) epoch;
      let (_ : Rmem.Segment.t) =
        Rmem.Remote_memory.export rmems.(0) ~space:space0 ~base:1024 ~len:256
          ~id:7 ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Conditional
          ~name:"epoch" ()
      in
      Sim.Ivar.fill reexported ();
      Sim.Ivar.read done_)

(* ------------------------------------------------------------------ *)
(* racy: two writers, one range, no synchronization at all.  The seeded
   positive the detector must flag. *)

let racy () =
  let testbed, rmems, monitor = setup ~nodes:3 in
  wrap ~testbed ~monitor (fun () ->
      let server = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space server in
      let shared =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"shared" ()
      in
      let done_ = Sim.Ivar.create ~name:"racy done" () in
      let finished = ref 0 in
      for c = 1 to 2 do
        let node = Cluster.Testbed.node testbed c in
        Cluster.Node.spawn node (fun () ->
            let rmem = rmems.(c) in
            let desc =
              import_segment rmem ~from:(Cluster.Node.addr server) shared
                ~rights:Rmem.Rights.all
            in
            Rmem.Remote_memory.write rmem desc ~off:1024
              (Bytes.make 256 (Char.chr (0x60 + c)));
            Rmem.Remote_memory.fence rmem desc;
            incr finished;
            if !finished = 2 then Sim.Ivar.fill done_ ())
      done;
      Sim.Ivar.read done_)

(* ------------------------------------------------------------------ *)
(* torn_record: one node, a two-word record updated word by word with a
   yield in between, and a reader snapshotting the pair the same way.
   Under the default FIFO schedule the reader's snapshots always land
   on a consistent record; picking the writer first at the shared
   instant tears the read.  Because the whole scenario lives on one
   node — one vector-clock agent — the race detector is structurally
   blind to it: the bug is an invariant violation only schedule
   exploration can surface. *)

let torn_record () =
  (* Two nodes because the network layer needs a peer; node 1 stays
     idle, so every access still belongs to one agent. *)
  let testbed, rmems, monitor = setup ~nodes:2 in
  let engine = Cluster.Testbed.engine testbed in
  let observed = ref [] in
  wrap ~testbed ~monitor
    ~invariants:
      [
        ( "record snapshots consistent",
          fun () -> List.for_all (fun (a, b) -> a = b) !observed );
      ]
    (fun () ->
      let node = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space node in
      let record =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:64
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Never ~name:"record" ()
      in
      let read_word off =
        let v = Cluster.Address_space.read_word space ~addr:off in
        Monitor.local_access monitor ~node ~segment:record ~kind:Access.Load
          ~off ~count:4 ~value:(Int32.of_int v) ();
        v
      in
      let write_word off v =
        Monitor.local_access monitor ~node ~segment:record ~kind:Access.Store
          ~off ~count:4 ~value:(Int32.of_int v) ();
        Cluster.Address_space.write_word space ~addr:off v
      in
      let reader_done = Sim.Ivar.create ~name:"reader done" () in
      let writer_done = Sim.Ivar.create ~name:"writer done" () in
      Sim.Proc.spawn ~name:"reader" engine (fun () ->
          for _ = 1 to 2 do
            let a = read_word 0 in
            Sim.Proc.yield ();
            let b = read_word 4 in
            observed := (a, b) :: !observed
          done;
          Sim.Ivar.fill reader_done ());
      Sim.Proc.spawn ~name:"writer" engine (fun () ->
          write_word 0 1;
          Sim.Proc.yield ();
          write_word 4 1;
          Sim.Ivar.fill writer_done ());
      Sim.Ivar.read reader_done;
      Sim.Ivar.read writer_done)

(* ------------------------------------------------------------------ *)
(* cas_missing_release: a CAS lock protocol whose fast path — winning
   the lock on the very first attempt — forgets both the release CAS
   and the baton handoff.  Under the default FIFO schedule the lock
   starts held and every winner goes through the (correct) retry path;
   letting the init process run first frees the lock early, a client
   wins outright, and the other client plus the main process block
   forever.  A single-schedule race check sees a clean run; only
   exploration reaches the deadlock. *)

let cas_missing_release () =
  let testbed, rmems, monitor = setup ~nodes:2 in
  let engine = Cluster.Testbed.engine testbed in
  wrap ~testbed ~monitor (fun () ->
      let server = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space server in
      (* The lock word starts held by the setup (value 9); [init]
         releases it once the clients are parked on their first
         attempt.  Written before the export — the history layer
         snapshots exported memory as its initial value — and directly,
         not through the monitor: the word must stay CAS-only for the
         sync-word exemption. *)
      Cluster.Address_space.write_word space ~addr:0 9;
      let lock =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"lock table" ()
      in
      let rmem = rmems.(1) in
      let desc =
        import_segment rmem ~from:(Cluster.Node.addr server) lock
          ~rights:Rmem.Rights.all
      in
      let baton = Sim.Mailbox.create ~name:"baton" () in
      let done_ = Sim.Ivar.create ~name:"done" () in
      let finished_clients = ref 0 in
      for c = 1 to 2 do
        Sim.Proc.spawn ~name:(Printf.sprintf "client%d" c) engine (fun () ->
            let me = c in
            let attempts = ref 1 in
            let won =
              ref (Rmem.Remote_memory.cas_wait rmem desc ~doff:0
                     ~old_value:0 ~new_value:me () = 0)
            in
            while not !won do
              Sim.Mailbox.recv baton;
              incr attempts;
              won :=
                Rmem.Remote_memory.cas_wait rmem desc ~doff:0 ~old_value:0
                  ~new_value:me () = 0
            done;
            Rmem.Remote_memory.write rmem desc ~off:64
              (Bytes.make 32 (Char.chr (0x40 + c)));
            (* THE BUG: a first-attempt win skips the fence, the
               release CAS and the baton handoff. *)
            if !attempts > 1 then begin
              Rmem.Remote_memory.fence rmem desc;
              let witness =
                Rmem.Remote_memory.cas_wait rmem desc ~doff:0 ~old_value:me
                  ~new_value:0 ()
              in
              assert (witness = me);
              Sim.Mailbox.send baton ()
            end;
            incr finished_clients;
            if !finished_clients = 2 then Sim.Ivar.fill done_ ())
      done;
      Sim.Proc.spawn ~name:"init" engine (fun () ->
          let witness =
            Rmem.Remote_memory.cas_wait rmem desc ~doff:0 ~old_value:9
              ~new_value:0 ()
          in
          assert (witness = 9);
          Sim.Mailbox.send baton ());
      Sim.Ivar.read done_)

(* cas_double_apply: a lost-reply CAS retry wrapper that can apply its
   operation twice.  Client A's wrapper issues CAS(0->1), decides the
   reply may have been lost, and reissues the same CAS once the
   coordinator releases it, reporting success to its caller if either
   attempt won.  Under the default FIFO schedule the retry runs before
   client B touches the word, fails harmlessly, and every observation
   is consistent.  But if B's CAS(1->0) slips between the two attempts,
   the retry wins a second time: the caller saw *one* successful
   CAS(0->1), yet memory absorbed two, and B's follow-up CAS(0->5)
   fails with witness 1 — a history with no valid linearization.  The
   word is CAS-only so there is no race, nothing deadlocks, and no lint
   rule fires: only exploration plus the linearizability checker
   catches it. *)

let cas_double_apply () =
  let testbed, rmems, monitor = setup ~nodes:3 in
  let engine = Cluster.Testbed.engine testbed in
  wrap ~testbed ~monitor (fun () ->
      let server = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space server in
      let word =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"shared word" ()
      in
      let cell =
        {
          History.key =
            {
              Access.home = Atm.Addr.to_int (Cluster.Node.addr server);
              seg = Rmem.Segment.id word;
              gen = Rmem.Generation.to_int (Rmem.Segment.generation word);
            };
          word = 0;
        }
      in
      let import c =
        import_segment rmems.(c) ~from:(Cluster.Node.addr server) word
          ~rights:Rmem.Rights.all
      in
      let desc_a = import 1 in
      let desc_b = import 2 in
      let a1_done = Sim.Ivar.create ~name:"attempt1 done" () in
      let go_a = Sim.Ivar.create ~name:"go a" () in
      let go_b = Sim.Ivar.create ~name:"go b" () in
      let done_ = Sim.Ivar.create ~name:"done" () in
      let finished = ref 0 in
      let finish () =
        incr finished;
        if !finished = 2 then Sim.Ivar.fill done_ ()
      in
      let node_a = Cluster.Testbed.node testbed 1 in
      let agent_a =
        Printf.sprintf "node%d" (Atm.Addr.to_int (Cluster.Node.addr node_a))
      in
      Cluster.Node.spawn node_a (fun () ->
          (* The wrapper: one logical CAS(0->1) as far as its caller can
             tell, however many requests it put on the wire. *)
          Monitor.logical_begin monitor ~agent_name:agent_a;
          let s1 =
            Rmem.Remote_memory.cas_wait rmems.(1) desc_a ~doff:0 ~old_value:0
              ~new_value:1 ()
            = 0
          in
          Sim.Ivar.fill a1_done ();
          Sim.Ivar.read go_a;
          (* THE BUG: the wrapper reissues the CAS as if the first reply
             had been lost, and treats a second win as the same win. *)
          let w2 =
            Rmem.Remote_memory.cas_wait rmems.(1) desc_a ~doff:0 ~old_value:0
              ~new_value:1 ()
          in
          let success = s1 || w2 = 0 in
          let witness =
            if success then History.Known 0l else History.Known (Int32.of_int w2)
          in
          Monitor.logical_commit monitor ~agent_name:agent_a ~cell
            ~op:(History.Cas { expected = 0l; desired = 1l; success; witness });
          finish ());
      Cluster.Node.spawn (Cluster.Testbed.node testbed 2) (fun () ->
          Sim.Ivar.read go_b;
          let (_ : int) =
            Rmem.Remote_memory.cas_wait rmems.(2) desc_b ~doff:0 ~old_value:1
              ~new_value:0 ()
          in
          let (_ : int) =
            Rmem.Remote_memory.cas_wait rmems.(2) desc_b ~doff:0 ~old_value:0
              ~new_value:5 ()
          in
          finish ());
      Sim.Proc.spawn ~name:"coordinator" engine (fun () ->
          Sim.Ivar.read a1_done;
          (* Released in this order, the default FIFO schedule runs the
             (failing) retry before B's first CAS; the two wake-ups land
             at the same instant, so exploration gets to flip them. *)
          Sim.Ivar.fill go_a ();
          Sim.Ivar.fill go_b ());
      Sim.Ivar.read done_)

(* frame_overrun: a forwarder snapshots a frame descriptor — (offset,
   length) words its own node's writer updates in place — and passes
   the snapshot to a remote reader, which issues a READ of exactly
   those bytes from an 8-byte data segment.  Under the default FIFO
   schedule the snapshot is always consistent ((0,8) or (4,4)) and the
   READ is in bounds; a torn snapshot pairs the new offset with the old
   length, and the reader's READ of [4..12) overruns the extent — a
   Bounds rejection the reader absorbs, which only the "bounds" lint
   rule (and the static verifier, from the program text alone) sees.
   All header traffic is one agent, so the race detector is blind to
   the tear. *)

let frame_overrun () =
  let testbed, rmems, monitor = setup ~nodes:2 in
  let engine = Cluster.Testbed.engine testbed in
  wrap ~testbed ~monitor (fun () ->
      let node0 = Cluster.Testbed.node testbed 0 in
      let node1 = Cluster.Testbed.node testbed 1 in
      let space0 = Cluster.Node.new_address_space node0 in
      let space1 = Cluster.Node.new_address_space node1 in
      (* Initial descriptor (off=0, len=8), written before the export so
         the history layer snapshots it as the initial value. *)
      Cluster.Address_space.write_word space0 ~addr:0 0;
      Cluster.Address_space.write_word space0 ~addr:4 8;
      let header =
        Rmem.Remote_memory.export rmems.(0) ~space:space0 ~base:0 ~len:64
          ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Never
          ~name:"frame.header" ()
      in
      let data =
        Rmem.Remote_memory.export rmems.(0) ~space:space0 ~base:1024 ~len:8
          ~rights:Rmem.Rights.read_only ~policy:Rmem.Segment.Conditional
          ~name:"frame.data" ()
      in
      let req =
        Rmem.Remote_memory.export rmems.(1) ~space:space1 ~base:0 ~len:8
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"frame.req" ()
      in
      let read_header off =
        let v = Cluster.Address_space.read_word space0 ~addr:off in
        Monitor.local_access monitor ~node:node0 ~segment:header
          ~kind:Access.Load ~off ~count:4 ~value:(Int32.of_int v) ();
        v
      in
      let write_header off v =
        Monitor.local_access monitor ~node:node0 ~segment:header
          ~kind:Access.Store ~off ~count:4 ~value:(Int32.of_int v) ();
        Cluster.Address_space.write_word space0 ~addr:off v
      in
      let done_ = Sim.Ivar.create ~name:"frame done" () in
      let forwarded = Sim.Ivar.create ~name:"forwarded" () in
      Cluster.Node.spawn node1 (fun () ->
          let fd = Rmem.Segment.notification req in
          let (_ : Rmem.Notification.record) = Rmem.Notification.wait fd in
          let read_req addr =
            let v = Cluster.Address_space.read_word space1 ~addr in
            Monitor.local_access monitor ~node:node1 ~segment:req
              ~kind:Access.Load ~off:addr ~count:4 ~value:(Int32.of_int v) ();
            v
          in
          let off = read_req 0 in
          let len = read_req 4 in
          let desc =
            import_segment rmems.(1) ~from:(Cluster.Node.addr node0) data
              ~rights:Rmem.Rights.read_only
          in
          let my_space = Cluster.Node.new_address_space node1 in
          let buf = Rmem.Remote_memory.buffer ~space:my_space ~base:0 ~len:16 in
          (* The overrun: a torn (new-off, old-len) snapshot reaches
             past the extent; the exporter's Bounds nack is absorbed. *)
          (match
             Rmem.Remote_memory.read_wait rmems.(1) desc ~soff:off ~count:len
               ~dst:buf ~doff:0 ()
           with
          | () -> ()
          | exception Rmem.Status.Remote_error Rmem.Status.Bounds -> ());
          Sim.Ivar.fill done_ ());
      Sim.Proc.spawn ~name:"writer" engine (fun () ->
          (* Retarget the descriptor to (off=4, len=4), word by word. *)
          write_header 0 4;
          Sim.Proc.yield ();
          write_header 4 4);
      Sim.Proc.spawn ~name:"forwarder" engine (fun () ->
          let off = read_header 0 in
          Sim.Proc.yield ();
          let len = read_header 4 in
          let desc =
            import_segment rmems.(0) ~from:(Cluster.Node.addr node1) req
              ~rights:Rmem.Rights.all
          in
          let snapshot = Bytes.create 8 in
          Bytes.set_int32_le snapshot 0 (Int32.of_int off);
          Bytes.set_int32_le snapshot 4 (Int32.of_int len);
          Rmem.Remote_memory.write rmems.(0) desc ~off:0 ~notify:true snapshot;
          Sim.Ivar.fill forwarded ());
      Sim.Ivar.read forwarded;
      Sim.Ivar.read done_)

(* dds_register_no_writeback: the dds suite's ABD register with the
   read's write-back phase disabled ([~write_back:false]) — the seeded
   protocol bug of PR 10.  A first writer (a real [Dds.Register]
   client) installs 10 on every replica; then a second writer pushes
   42 through majority {0,1}, claim-CAS plus atomic cell deposit per
   replica — the store phase is spelled out with raw remote-memory
   ops so the coordinator can hold it between replicas, exactly the
   in-flight partial write ABD is defensive about.  Two
   write-back-free reader clients, each restricted to a different
   majority ({0,2}, then {1,2}), read in sequence from one node: R1
   adopts 42 from replica 0 and — the bug — does not write it back to
   replica 2.  The coordinator then releases W2's replica-1 claim and
   R2's collect at the same instant.  Under FIFO the claim is served
   first, R2 retries against the busy cell and adopts 42 — clean, and
   the race detector sees nothing because both replica-cell words are
   declared sync words (quorum-replicated copies are the protocol,
   not a race).  Exploration flips the order: R2 decodes the stale
   cell on both of its replicas and returns 10 after R1 already
   returned 42 — a committed-write history with no linearization, the
   new/old inversion the write-back phase exists to prevent. *)

let reg_read_align = Sim.Time.ns 550

let dds_register_no_writeback () =
  let testbed, rmems, monitor = setup ~nodes:5 in
  let engine = Cluster.Testbed.engine testbed in
  let node i = Cluster.Testbed.node testbed i in
  let amsgs = Array.init 5 (fun i -> Amsg.attach (node i)) in
  wrap ~testbed ~monitor (fun () ->
      let reps =
        Array.init 3 (fun k ->
            Dds.Register.replica ~rmem:rmems.(k) ~amsg:amsgs.(k) ())
      in
      let key r =
        Monitor.key_of_segment
          ~home:(Atm.Addr.to_int (Cluster.Node.addr (Dds.Register.replica_node r)))
          (Dds.Register.replica_segment r)
      in
      Array.iter
        (fun r ->
          Monitor.declare_sync_word monitor ~key:(key r) ~off:0;
          Monitor.declare_sync_word monitor ~key:(key r) ~off:4)
        reps;
      let spaces = Array.map Dds.Register.replica_space reps in
      (* The register's designated history cell: replica 0's value
         word, the same one [Dds.Register]'s own Commit names. *)
      let cell = { History.key = key reps.(0); word = 4 } in
      let w1_done = Sim.Ivar.create ~name:"w1 done" () in
      let go_w2 = Sim.Ivar.create ~name:"go w2" () in
      let go_r1 = Sim.Ivar.create ~name:"go r1" () in
      let r1_done = Sim.Ivar.create ~name:"r1 done" () in
      let go_claim1 = Sim.Ivar.create ~name:"go claim rep1" () in
      let go_r2 = Sim.Ivar.create ~name:"go r2" () in
      let done_ = Sim.Ivar.create ~name:"reg done" () in
      let finished = ref 0 in
      let finish () =
        incr finished;
        if !finished = 2 then Sim.Ivar.fill done_ ()
      in
      let agent_w = Printf.sprintf "node%d" (Atm.Addr.to_int (Cluster.Node.addr (node 3))) in
      let old_tag = Dds.Tag.pack { Dds.Tag.ts = 1; wr = 1 } in
      let new_cell =
        Dds.Tag.encode (Dds.Tag.pack { Dds.Tag.ts = 2; wr = 2 }) 42
      in
      Cluster.Node.spawn (node 3) (fun () ->
          let w1 =
            Dds.Register.client ~rmem:rmems.(3) ~amsg:amsgs.(3)
              ~kind:Dds.Kind.Dx ~rank:1 reps
          in
          let desc k =
            import_segment rmems.(3)
              ~from:(Cluster.Node.addr (Dds.Register.replica_node reps.(k)))
              (Dds.Register.replica_segment reps.(k))
              ~rights:Rmem.Rights.all
          in
          let desc0 = desc 0 and desc1 = desc 1 in
          ignore (Dds.Register.write w1 10l);
          Sim.Ivar.fill w1_done ();
          Sim.Ivar.read go_w2;
          (* W2: one logical write of 42 through majority {0,1} — tag
             (2, rank 2) — whose store phase pauses between replicas. *)
          Monitor.logical_begin monitor ~agent_name:agent_w;
          let store desc =
            let witness =
              Rmem.Remote_memory.cas_wait rmems.(3) desc ~doff:0
                ~old_value:old_tag ~new_value:(Dds.Tag.busy_for 2) ()
            in
            assert (witness = old_tag);
            Rmem.Remote_memory.write rmems.(3) desc ~off:0 new_cell
          in
          store desc0;
          Sim.Ivar.read go_claim1;
          store desc1;
          Monitor.logical_commit monitor ~agent_name:agent_w ~cell
            ~op:(History.Write (History.Known 42l));
          finish ());
      Cluster.Node.spawn (node 4) (fun () ->
          let client ~quorum rank =
            Dds.Register.client ~rmem:rmems.(4) ~amsg:amsgs.(4)
              ~kind:Dds.Kind.Dx ~rank ~write_back:false ~quorum reps
          in
          let r1 = client ~quorum:[ 0; 2 ] 3 in
          let r2 = client ~quorum:[ 1; 2 ] 4 in
          Sim.Ivar.read go_r1;
          ignore (Dds.Register.read r1);
          Sim.Ivar.fill r1_done ();
          Sim.Ivar.read go_r2;
          (* Calibrated: a CAS leaves the issuing NIC this much later
             than a READ, so R2's collect is held just long enough
             that its replica-1 READ and W2's claim arrive at the same
             instant — with the claim's frame enqueued first.  Moves
             with the cost model; revalidate with [bin/modelcheck]. *)
          Sim.Proc.wait reg_read_align;
          ignore (Dds.Register.read r2);
          finish ());
      Sim.Proc.spawn ~name:"coordinator" engine (fun () ->
          (* The settle polls read replica memory directly — off the
             books, so the gating itself leaves no trace in the
             history. *)
          let settled k tagw v =
            let word addr = Cluster.Address_space.read_word spaces.(k) ~addr in
            word 0 = tagw && word 4 = v
          in
          let rec await k tagw v =
            if not (settled k tagw v) then begin
              Sim.Proc.wait (Sim.Time.us 1);
              await k tagw v
            end
          in
          Sim.Ivar.read w1_done;
          (* W1's blind deposits must all have landed, so phase 2
             starts from a rigid, replicated 10. *)
          for k = 0 to 2 do
            await k old_tag 10
          done;
          Sim.Ivar.fill go_w2 ();
          (* Replica 0 holds the committed half of W2's write... *)
          await 0 (Dds.Tag.pack { Dds.Tag.ts = 2; wr = 2 }) 42;
          Sim.Ivar.fill go_r1 ();
          Sim.Ivar.read r1_done;
          (* ...and these two wake-ups land at the same instant: under
             FIFO W2's replica-1 claim is served before R2's collect
             READ; exploration gets to flip them. *)
          Sim.Ivar.fill go_claim1 ();
          Sim.Ivar.fill go_r2 ());
      Sim.Ivar.read done_)

let file_service = file_service_with ~fence:true
let file_service_nofence = file_service_with ~fence:false

(* ------------------------------------------------------------------ *)
(* The distributed data structures, observed through remote memory and
   their clients' operation brackets. *)

let dds_rig n body =
  let testbed, rmems, monitor = setup ~nodes:n in
  let nodes = Array.init n (Cluster.Testbed.node testbed) in
  let amsgs = Array.map Amsg.attach nodes in
  wrap ~testbed ~monitor (fun () -> body ~nodes ~rmems ~amsgs)

let dds_join ~target counter =
  let rec join () =
    if !counter < target then begin
      Sim.Proc.wait (Sim.Time.ms 1);
      join ()
    end
  in
  join ()

(* Three clients — one per structuring — hammer a shared key and a
   private key of one server table. *)
let dds_hashtable () =
  dds_rig 4 (fun ~nodes ~rmems ~amsgs ->
      let s = Dds.Hashtable.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~slots:64 () in
      let done_ = ref 0 in
      for c = 1 to 3 do
        Cluster.Node.spawn nodes.(c) (fun () ->
            let t =
              Dds.Hashtable.client ~rmem:rmems.(c) ~amsg:amsgs.(c)
                ~kind:(List.nth Dds.Kind.all (c - 1))
                s
            in
            for i = 1 to 5 do
              Dds.Hashtable.insert t ~key:9l
                ~value:(Int32.of_int ((c * 10) + i));
              ignore (Dds.Hashtable.lookup t 9l);
              Dds.Hashtable.insert t ~key:(Int32.of_int (100 + c))
                ~value:(Int32.of_int i)
            done;
            incr done_)
      done;
      dds_join ~target:3 done_)

(* Two mixed-kind producers, one hybrid consumer draining everything. *)
let dds_queue () =
  dds_rig 4 (fun ~nodes ~rmems ~amsgs ->
      let s = Dds.Queue.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~capacity:64 () in
      let consumed = ref 0 in
      for p = 1 to 2 do
        Cluster.Node.spawn nodes.(p) (fun () ->
            let t =
              Dds.Queue.client ~rmem:rmems.(p) ~amsg:amsgs.(p)
                ~kind:(if p = 1 then Dds.Kind.Dx else Dds.Kind.Rpc)
                s
            in
            for i = 0 to 9 do
              ignore (Dds.Queue.enqueue t (Int32.of_int ((p * 100) + i)))
            done;
            Dds.Queue.flush t)
      done;
      Cluster.Node.spawn nodes.(3) (fun () ->
          let t =
            Dds.Queue.client ~rmem:rmems.(3) ~amsg:amsgs.(3)
              ~kind:Dds.Kind.Hybrid s
          in
          for _ = 1 to 20 do
            ignore (Dds.Queue.dequeue t);
            incr consumed
          done);
      dds_join ~target:20 consumed)

(* Three writer/reader clients — one per structuring — over one
   3-replica ABD register. *)
let dds_register () =
  dds_rig 6 (fun ~nodes ~rmems ~amsgs ->
      let reps =
        Array.init 3 (fun k ->
            Dds.Register.replica ~rmem:rmems.(k) ~amsg:amsgs.(k) ())
      in
      let done_ = ref 0 in
      List.iteri
        (fun i (c, kind) ->
          Cluster.Node.spawn nodes.(c) (fun () ->
              let t =
                Dds.Register.client ~rmem:rmems.(c) ~amsg:amsgs.(c) ~kind
                  ~rank:(i + 1) reps
              in
              for v = 1 to 4 do
                ignore (Dds.Register.write t (Int32.of_int ((c * 10) + v)));
                ignore (Dds.Register.read t)
              done;
              incr done_))
        [ (3, Dds.Kind.Dx); (4, Dds.Kind.Rpc); (5, Dds.Kind.Hybrid) ];
      dds_join ~target:3 done_)

let run prepare =
  let prep = prepare () in
  Sim.Engine.run (Cluster.Testbed.engine prep.testbed);
  prep.monitor
