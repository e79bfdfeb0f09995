(* The distributed data-structure suite: probe/tag units, the RPC call
   plane, and the three structures in all three structurings —
   differentially against each other, under faults, and under the
   linearizability checker. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_i32 = Alcotest.(check int32)

(* ---------------- rig: n nodes with rmem + amsg planes ------------- *)

type rig = {
  testbed : Cluster.Testbed.t;
  nodes : Cluster.Node.t array;
  rmems : Rmem.Remote_memory.t array;
  amsgs : Amsg.t array;
}

let rig ?seed n =
  let testbed = Cluster.Testbed.create ?seed ~nodes:n () in
  let nodes = Array.init n (Cluster.Testbed.node testbed) in
  {
    testbed;
    nodes;
    rmems = Array.map Rmem.Remote_memory.attach nodes;
    amsgs = Array.map Amsg.attach nodes;
  }

let run r body = Cluster.Testbed.run r.testbed body

let policy () =
  Rmem.Recovery.policy ~attempts:12 ~timeout:(Sim.Time.us 400) ()

(* ---------------------------- Probe -------------------------------- *)

(* Drive the walk over an in-memory table: int array where 0 is free,
   -1 a tombstone, anything else a key. *)
let classify_table table key index =
  match table.(index) with
  | 0 -> Dds.Probe.Free
  | -1 -> Dds.Probe.Tombstone (Some index)
  | k when k = key -> Dds.Probe.Hit ()
  | _ -> Dds.Probe.Other

let walk_table table ~hash key =
  Dds.Probe.walk ~slots:(Array.length table) ~hash ~classify:classify_table
    table key

let probe_hit_and_probes () =
  (* hash 2, chain [2]=9 [3]=7: finding 7 takes one displacement. *)
  let table = [| 0; 0; 9; 7; 0; 0; 0; 0 |] in
  match walk_table table ~hash:2 7 with
  | Dds.Probe.Found { index; probes; hit = () } ->
      check_int "index" 3 index;
      check_int "probes" 1 probes
  | Dds.Probe.Absent _ -> Alcotest.fail "expected Found"

let probe_absent_free () =
  let table = [| 0; 0; 9; 7; 0; 0; 0; 0 |] in
  match walk_table table ~hash:2 5 with
  | Dds.Probe.Absent { free = Some 4; reusable = None; probes = 2; _ } -> ()
  | _ -> Alcotest.fail "expected Absent at the chain-ending free slot"

let probe_tombstone_reuse_and_note () =
  (* First tombstone along the chain is remembered even when a later
     one appears; its note is carried out. *)
  let table = [| 0; 0; -1; 7; -1; 0; 0; 0 |] in
  match walk_table table ~hash:2 5 with
  | Dds.Probe.Absent { free = Some 5; reusable = Some 2; note = Some 2; _ } ->
      ()
  | _ -> Alcotest.fail "expected first tombstone as the reusable slot"

let probe_wraps_modulo () =
  let table = [| 7; 0; 0; 0; 0; 0; 9; 9 |] in
  match walk_table table ~hash:6 7 with
  | Dds.Probe.Found { index = 0; probes = 2; _ } -> ()
  | _ -> Alcotest.fail "expected wrap-around hit at slot 0"

let probe_full_table () =
  let table = Array.make 4 9 in
  match walk_table table ~hash:1 5 with
  | Dds.Probe.Absent { free = None; reusable = None; probes = 4; _ } -> ()
  | _ -> Alcotest.fail "expected exhausted walk"

(* The walk as it was when every caller built a classify closure per
   walk and the walk a [go] closure: the reference the closure-free walk
   must agree with. *)
let reference_walk ~slots ~hash ~classify =
  let rec go probe reusable note =
    if probe >= slots then
      Dds.Probe.Absent { free = None; reusable; note; probes = probe }
    else begin
      let index = (hash + probe) land (slots - 1) in
      match classify ~index ~probe with
      | Dds.Probe.Hit hit -> Dds.Probe.Found { index; probes = probe; hit }
      | Dds.Probe.Free ->
          Dds.Probe.Absent { free = Some index; reusable; note; probes = probe }
      | Dds.Probe.Tombstone n ->
          let reusable =
            match reusable with None -> Some index | some -> some
          in
          let note = match note with None -> n | some -> some in
          go (probe + 1) reusable note
      | Dds.Probe.Other -> go (probe + 1) reusable note
    end
  in
  go 0 None None

(* A slot state: free, live under another key, live under the probed
   key (a hit, carrying the slot's index), a bare tombstone, or one
   whose note is the slot's index. *)
type slot_state = Free_slot | Live | Hit_slot | Bare | Noted

let classify_state states index =
  match states.(index) with
  | Free_slot -> Dds.Probe.Free
  | Live -> Dds.Probe.Other
  | Hit_slot -> Dds.Probe.Hit index
  | Bare -> Dds.Probe.Tombstone None
  | Noted -> Dds.Probe.Tombstone (Some index)

(* The new walk's classify: the states, and the indices it was called
   on, newest first. *)
let classify_logged (states, calls) () index =
  calls := index :: !calls;
  classify_state states index

(* Tables of 1 to 16 slots; a third of them have no free slot. *)
let slot_states_gen =
  let open QCheck.Gen in
  let* bits = int_range 0 4 in
  let* full = map (fun n -> n = 0) (int_range 0 2) in
  let* hash = int_range 0 1000 in
  let state =
    frequency
      [ ((if full then 0 else 3), return Free_slot); (4, return Live);
        (1, return Hit_slot); (2, return Bare); (2, return Noted) ]
  in
  let+ states = array_repeat (1 lsl bits) state in
  (hash, states)

let print_states (hash, states) =
  Printf.sprintf "hash %d: [%s]" hash
    (String.concat "; "
       (Array.to_list
          (Array.map
             (function
               | Free_slot -> "free" | Live -> "live" | Hit_slot -> "hit"
               | Bare -> "bare" | Noted -> "noted")
             states)))

let probe_matches_reference =
  QCheck.Test.make ~name:"probe: walk matches the reference walk" ~count:1000
    (QCheck.make ~print:print_states slot_states_gen) (fun (hash, states) ->
      let slots = Array.length states in
      let old_calls = ref [] and new_calls = ref [] in
      let expected =
        reference_walk ~slots ~hash ~classify:(fun ~index ~probe ->
            old_calls := (index, probe) :: !old_calls;
            classify_state states index)
      in
      let got =
        Dds.Probe.walk ~slots ~hash ~classify:classify_logged
          (states, new_calls) ()
      in
      expected = got
      && List.rev !new_calls
         = List.mapi
             (fun i (index, probe) ->
               if probe <> i then QCheck.Test.fail_report "probe out of order";
               index)
             (List.rev !old_calls))

(* ----------------------------- Tag --------------------------------- *)

let tag_gen =
  QCheck.map
    (fun (ts, wr) -> { Dds.Tag.ts; wr })
    QCheck.(pair (int_range 0 100_000) (int_range 0 (Dds.Tag.ranks - 1)))

let tag_roundtrip =
  QCheck.Test.make ~name:"tag pack/unpack roundtrip" ~count:300 tag_gen
    (fun tag -> Dds.Tag.unpack (Dds.Tag.pack tag) = tag)

let tag_order_preserved =
  QCheck.Test.make ~name:"tag packing preserves quorum order" ~count:300
    (QCheck.pair tag_gen tag_gen) (fun (a, b) ->
      Stdlib.compare (a.Dds.Tag.ts, a.wr) (b.Dds.Tag.ts, b.wr)
      = Int.compare (Dds.Tag.pack a) (Dds.Tag.pack b))

let tag_cell_roundtrip =
  QCheck.Test.make ~name:"tag cell encode/decode roundtrip" ~count:300
    (QCheck.pair tag_gen QCheck.int32) (fun (tag, v) ->
      let cell = Dds.Tag.encode (Dds.Tag.pack tag) (Int32.to_int v) in
      Bytes.length cell = Dds.Tag.cell_bytes
      && Dds.Tag.unpack (Int32.to_int (Bytes.get_int32_le cell 0)) = tag
      && Int32.equal (Bytes.get_int32_le cell 4) v)

let tag_busy_cells_refused () =
  for wr = 0 to Dds.Tag.ranks - 1 do
    let w = Dds.Tag.busy_for wr in
    check_bool "is_busy" true (Dds.Tag.is_busy w);
    check_bool "no tag packs to it" false
      (Dds.Tag.is_busy (Dds.Tag.pack { Dds.Tag.ts = 0x7FFFFFE; wr }));
    check_bool "decode refuses busy" true
      (match Dds.Tag.unpack w with
      | _ -> false
      | exception Invalid_argument _ -> true)
  done

(* ----------------------------- Call -------------------------------- *)

(* A service that answers with its request. *)
let echo ~src:_ body ~pos ~len ~(reply : Dds.Call.reply) =
  Bytes.blit body pos reply.buf 0 len;
  reply.len <- len;
  Sim.Time.zero

(* [echo], counting its runs. *)
let counted runs ~src body ~pos ~len ~reply =
  incr runs;
  echo ~src body ~pos ~len ~reply

let call_round_trip () =
  let r = rig 2 in
  Dds.Call.serve r.amsgs.(0) ~id:0x50 (fun ~src:_ body ~pos ~len ~reply ->
      for i = 0 to len - 1 do
        Bytes.set reply.buf i (Char.chr (Char.code (Bytes.get body (pos + i)) + 1))
      done;
      reply.len <- len;
      Sim.Time.zero);
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let reply = Bytes.make 8 '.' in
      let n =
        Dds.Call.call ep
          ~dst:(Cluster.Node.addr r.nodes.(0))
          ~id:0x50 (Bytes.of_string "abc") ~reply
      in
      Alcotest.(check string) "service applied" "bcd....."
        (Bytes.to_string reply);
      check_int "reply length" 3 n)

let call_at_most_once_under_loss () =
  let r = rig ~seed:5 2 in
  let executions = ref 0 in
  Dds.Call.serve r.amsgs.(0) ~id:0x51 (counted executions);
  let plan =
    Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:0.25 ()) ()
  in
  let _plane = Faults.Plane.create ~plan ~seed:7 r.testbed in
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let dst = Cluster.Node.addr r.nodes.(0) in
      let reply = Bytes.create 4 in
      for i = 1 to 20 do
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int i);
        check_int "reply length" 4 (Dds.Call.call ep ~dst ~id:0x51 b ~reply);
        check_i32 "echoed" (Int32.of_int i) (Bytes.get_int32_le reply 0)
      done;
      (* Node 1 only calls: each attempt is one active message. *)
      check_bool "losses actually forced retries" true
        (Amsg.sent r.amsgs.(1) > 20);
      check_int "each call executed exactly once" 20 !executions)

(* An endpoint lives only as long as its plane: once a testbed is
   dropped, nothing global keeps its endpoints (and, through them, the
   whole testbed) reachable. *)
let call_endpoint_dies_with_testbed () =
  let weak = Weak.create 1 in
  let build () =
    let r = rig 2 in
    let ep = Dds.Call.endpoint r.amsgs.(1) in
    check_bool "one endpoint per plane" true (Dds.Call.endpoint r.amsgs.(1) == ep);
    Weak.set weak 0 (Some ep)
  in
  build ();
  Gc.full_major ();
  check_bool "endpoint collected" false (Weak.check weak 0)

(* A request as [Call.call] frames it, under a request id of the test's
   choosing: the server's duplicate cache is keyed by (source, id). *)
let raw_request r ~id ~req body =
  let b = Bytes.create (4 + Bytes.length body) in
  Bytes.set_int32_le b 0 req;
  Bytes.blit body 0 b 4 (Bytes.length body);
  Amsg.send r.amsgs.(1) ~dst:(Cluster.Node.addr r.nodes.(0)) ~handler:id b;
  Sim.Proc.wait (Sim.Time.ms 1)

let call_x ep ~dst ~id =
  ignore (Dds.Call.call ep ~dst ~id (Bytes.of_string "x") ~reply:(Bytes.create 1) : int)

(* Each source's replies sit in a 16-slot ring: a retransmitted id
   among the last 16 gets its cached reply without running the service
   again, and an id 16 calls older has been overwritten and runs it
   again. *)
let call_reply_cache_ring () =
  let r = rig 2 in
  let runs = ref 0 in
  Dds.Call.serve r.amsgs.(0) ~id:0x52 (counted runs);
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let dst = Cluster.Node.addr r.nodes.(0) in
      (* A fresh endpoint stamps ids 1, 2, ... *)
      for _ = 1 to 16 do
        call_x ep ~dst ~id:0x52
      done;
      check_int "16 calls, 16 runs" 16 !runs;
      raw_request r ~id:0x52 ~req:1l (Bytes.of_string "x");
      raw_request r ~id:0x52 ~req:16l (Bytes.of_string "x");
      check_int "ids 1 and 16 answered from the cache" 16 !runs;
      call_x ep ~dst ~id:0x52;
      check_int "id 17 runs" 17 !runs;
      raw_request r ~id:0x52 ~req:2l (Bytes.of_string "x");
      check_int "id 2 still cached" 17 !runs;
      raw_request r ~id:0x52 ~req:1l (Bytes.of_string "x");
      check_int "id 1, 16 calls older, runs again" 18 !runs)

(* The ring's free slots hold an id no request can carry: a first
   request under id -1 or Int32.min_int runs the service rather than
   finding an empty cached reply. *)
let call_cache_free_slots_match_no_id () =
  let r = rig 2 in
  let runs = ref 0 in
  Dds.Call.serve r.amsgs.(0) ~id:0x53 (counted runs);
  run r (fun () ->
      ignore (Dds.Call.endpoint r.amsgs.(1) : Dds.Call.endpoint);
      raw_request r ~id:0x53 ~req:(-1l) (Bytes.of_string "x");
      check_int "id -1 runs" 1 !runs;
      raw_request r ~id:0x53 ~req:Int32.min_int (Bytes.of_string "x");
      check_int "id min_int runs" 2 !runs;
      raw_request r ~id:0x53 ~req:0l (Bytes.of_string "x");
      check_int "id 0 runs" 3 !runs;
      raw_request r ~id:0x53 ~req:(-1l) (Bytes.of_string "x");
      check_int "id -1 again is cached" 3 !runs)

(* A call's record goes back to its endpoint's free stack only once its
   timer has fired as well.  The first call is answered at once; the
   second, on the same endpoint, has its reply held on the link past
   the first call's deadline (but within its own).  A timer that fired
   into the reused record would time the second call out there. *)
let call_stale_timer_never_fires_into_reuse () =
  let r = rig 2 in
  let runs = ref 0 in
  Dds.Call.serve r.amsgs.(0) ~id:0x55 (fun ~src:_ _ ~pos:_ ~len:_ ~reply ->
      incr runs;
      Dds.Call.set_word reply.buf 0 !runs;
      reply.len <- 4;
      Sim.Time.zero);
  let replies = ref 0 in
  let towards_client =
    List.find_map
      (fun (_, to_, link) -> if to_ = Some 1 then Some link else None)
      (Atm.Network.links (Cluster.Testbed.network r.testbed))
    |> Option.get
  in
  Atm.Link.set_interposer towards_client
    (Some
       (fun frame ->
         let payload = Atm.Frame.payload frame in
         if Bytes.get_uint8 payload 0 = 0x28 && Bytes.get_uint8 payload 1 = 0xC7
         then begin
           incr replies;
           if !replies = 2 then Atm.Link.Delay (Sim.Time.us 300)
           else Atm.Link.Deliver
         end
         else Atm.Link.Deliver));
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let dst = Cluster.Node.addr r.nodes.(0) in
      let reply = Bytes.create 4 in
      let engine = Cluster.Testbed.engine r.testbed in
      let deadline = Sim.Time.add (Sim.Engine.now engine) (Sim.Time.us 400) in
      ignore (Dds.Call.call ep ~dst ~id:0x55 (Bytes.of_string "a") ~reply : int);
      check_int "first call's reply" 1 (Dds.Call.word reply 0);
      Sim.Proc.wait (Sim.Time.us 200);
      ignore (Dds.Call.call ep ~dst ~id:0x55 (Bytes.of_string "b") ~reply : int);
      check_bool "second reply held past the first deadline" true
        (Sim.Engine.now engine > deadline);
      check_int "second call's own reply" 2 (Dds.Call.word reply 0);
      check_int "no attempt timed out" 2 (Amsg.sent r.amsgs.(1)));
  check_int "each call ran once" 2 !runs

(* A reply longer than the caller's buffer is refused, and the endpoint
   keeps working. *)
let call_reply_longer_than_buffer () =
  let r = rig 2 in
  Dds.Call.serve r.amsgs.(0) ~id:0x56 echo;
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let dst = Cluster.Node.addr r.nodes.(0) in
      let body = Bytes.of_string "twelve bytes" in
      check_bool "refused" true
        (match Dds.Call.call ep ~dst ~id:0x56 body ~reply:(Bytes.create 4) with
        | _ -> false
        | exception Invalid_argument _ -> true);
      let reply = Bytes.create 12 in
      check_int "a buffer that fits" 12 (Dds.Call.call ep ~dst ~id:0x56 body ~reply);
      Alcotest.(check string) "reply" "twelve bytes" (Bytes.to_string reply))

(* Every request and reply frame, and every duplicate answered from the
   cache, goes back to the network's frame pool. *)
let call_frames_back_to_pool () =
  let r = rig ~seed:5 2 in
  Dds.Call.serve r.amsgs.(0) ~id:0x57 echo;
  let pool = Atm.Nic.pool (Cluster.Node.nic r.nodes.(0)) in
  let baseline = Atm.Frame.outstanding pool in
  run r (fun () ->
      let ep = Dds.Call.endpoint r.amsgs.(1) in
      let dst = Cluster.Node.addr r.nodes.(0) in
      let reply = Bytes.create 8 in
      for _ = 1 to 20 do
        ignore (Dds.Call.call ep ~dst ~id:0x57 (Bytes.make 8 'q') ~reply : int)
      done;
      raw_request r ~id:0x57 ~req:3l (Bytes.of_string "dup"));
  check_int "frames outstanding" baseline (Atm.Frame.outstanding pool)

(* A request too short to hold its id is dropped: the service does not
   run and no reply goes back. *)
let call_short_request_dropped () =
  let r = rig 2 in
  let runs = ref 0 in
  Dds.Call.serve r.amsgs.(0) ~id:0x58 (counted runs);
  run r (fun () ->
      Amsg.send r.amsgs.(1) ~dst:(Cluster.Node.addr r.nodes.(0)) ~handler:0x58
        (Bytes.make 3 'x');
      Sim.Proc.wait (Sim.Time.ms 1));
  check_int "service not run" 0 !runs;
  check_int "no reply" 0 (Amsg.sent r.amsgs.(0))

(* The host cost of one active-message RPC: the caller's one park, its
   send's trap charged at event level; 10% above the 2.8 words measured
   with pooled frames and call records and both messages served at
   interrupt level (4.8 with the send's trap charged by the caller's
   own wait; 15 with the request served and the reply delivered
   in the dispatcher process; 72 with fresh frames, a copy of each
   payload and an ivar per call; 76 with a cons cell per pending call;
   94 with a mailbox node and a box per received frame and a [Self]
   effect per sleep; 187 with a codec writer and reader per frame, two
   copies per side and a reply history rebuilt as a list). Any of those
   back fails here. *)
let call_allocation_budget () =
  let r = rig 2 in
  Dds.Call.serve r.amsgs.(0) ~id:0x54 echo;
  let words =
    run r (fun () ->
        let ep = Dds.Call.endpoint r.amsgs.(1) in
        let dst = Cluster.Node.addr r.nodes.(0) in
        let body = Bytes.make 12 'q' in
        let reply = Bytes.create 12 in
        Rig.words_per_op ~n:200 (fun () ->
            ignore (Dds.Call.call ep ~dst ~id:0x54 body ~reply : int)))
  in
  Rig.within_budget "Call.call + serve round trip" ~words ~budget:3.1

(* --------------------------- Hashtable ----------------------------- *)

let htab_basic kind () =
  let r = rig 3 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:16 ()
      in
      let t =
        Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s
      in
      check_bool "absent before" true (Dds.Hashtable.lookup t 7l = None);
      Dds.Hashtable.insert t ~key:7l ~value:70l;
      Dds.Hashtable.insert t ~key:8l ~value:80l;
      check_bool "lookup 7" true (Dds.Hashtable.lookup t 7l = Some 70l);
      Dds.Hashtable.insert t ~key:7l ~value:71l;
      check_bool "overwrite" true (Dds.Hashtable.lookup t 7l = Some 71l);
      check_bool "delete present" true (Dds.Hashtable.delete t 7l);
      check_bool "delete absent" false (Dds.Hashtable.delete t 7l);
      check_bool "gone" true (Dds.Hashtable.lookup t 7l = None);
      check_bool "8 unaffected" true (Dds.Hashtable.lookup t 8l = Some 80l);
      Dds.Hashtable.flush t)

(* The host cost of a hybrid hashtable operation on an uncontended
   table: a lookup walks to a present key, an insert claims a fresh slot
   with a CAS and deposits its value; 10% above the 13.1 and 20.7 words
   measured with each READ's and CAS's trap charged at event level and
   each WRITE's trap and FIFO copy in one park (22.7 words for the
   insert with a wait per charge; 15.1 and 26.7 with the READ and CAS
   traps charged by the caller's own waits), the
   phase's words passed as arguments to top-level DX
   and RPC functions, the probe walk's classify a top-level function and
   each remote-memory frame served and delivered at interrupt level
   (25.1 and 48.7 words with a process switch per frame; a closure per
   lookup phase fails here, and one per walk, 13 words more, too). *)
let htab_hybrid_budget op ~budget () =
  let r = rig 2 in
  let words =
    run r (fun () ->
        let s =
          Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:1024 ()
        in
        let t =
          Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
            ~kind:Dds.Kind.Hybrid s
        in
        Dds.Hashtable.insert t ~key:7l ~value:70l;
        let next = ref 100l in
        Rig.words_per_op ~n:200 (fun () ->
            match op with
            | `Lookup -> ignore (Dds.Hashtable.lookup t 7l : int32 option)
            | `Insert ->
                next := Int32.succ !next;
                Dds.Hashtable.insert t ~key:!next ~value:1l))
  in
  Rig.within_budget
    ("hybrid hashtable " ^ match op with `Lookup -> "lookup" | `Insert -> "insert")
    ~words ~budget

let htab_reserved_keys () =
  let r = rig 2 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:8 ()
      in
      let t =
        Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind:Dds.Kind.Dx
          s
      in
      Alcotest.check_raises "key 0" (Invalid_argument
        "Dds.Hashtable: keys 0 and -1 are reserved") (fun () ->
          ignore (Dds.Hashtable.lookup t 0l));
      Alcotest.check_raises "value 0"
        (Invalid_argument "Dds.Hashtable.insert: value 0 is reserved")
        (fun () -> Dds.Hashtable.insert t ~key:3l ~value:0l))

let htab_full kind () =
  let r = rig 2 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:4 ()
      in
      let t =
        Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s
      in
      for k = 1 to 4 do
        Dds.Hashtable.insert t ~key:(Int32.of_int k) ~value:1l
      done;
      check_bool "full" true
        (match Dds.Hashtable.insert t ~key:5l ~value:1l with
        | () -> false
        | exception Dds.Hashtable.Full -> true);
      (* Deleting makes room again (tombstone reuse). *)
      ignore (Dds.Hashtable.delete t 2l);
      Dds.Hashtable.insert t ~key:5l ~value:5l;
      check_bool "reused" true (Dds.Hashtable.lookup t 5l = Some 5l))

(* The first [n] keys sharing key 1's home slot. *)
let colliding ~slots n =
  let rec from k acc =
    if List.length acc = n then List.rev acc
    else
      let same =
        Dds.Hashtable.home_index ~slots k = Dds.Hashtable.home_index ~slots 1l
      in
      from (Int32.add k 1l) (if same then k :: acc else acc)
  in
  from 1l []

let htab_tombstone_chain () =
  (* Delete a key in the middle of a collision chain: keys behind it
     must stay reachable for every structuring. *)
  let r = rig 2 in
  run r (fun () ->
      let slots = 8 in
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots ()
      in
      match colliding ~slots 3 with
      | [ a; b; c ] ->
          let t =
            Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
              ~kind:Dds.Kind.Dx s
          in
          Dds.Hashtable.insert t ~key:a ~value:10l;
          Dds.Hashtable.insert t ~key:b ~value:20l;
          Dds.Hashtable.insert t ~key:c ~value:30l;
          check_bool "middle deleted" true (Dds.Hashtable.delete t b);
          check_bool "chain intact" true (Dds.Hashtable.lookup t c = Some 30l);
          Dds.Hashtable.insert t ~key:b ~value:21l;
          check_bool "reinserted over tombstone" true
            (Dds.Hashtable.lookup t b = Some 21l)
      | _ -> assert false)

(* One scripted op sequence applied through a fresh instance per kind
   (each on its own home node); final state must agree with the
   reference model key by key. *)
let htab_differential ?plan ?plan_seed ?policy:pol name () =
  let r = rig ~seed:3 4 in
  let _plane =
    Option.map (fun plan -> Faults.Plane.create ~plan ~seed:(Option.value ~default:11 plan_seed) r.testbed) plan
  in
  let prng = Sim.Prng.create 99 in
  let script =
    List.init 400 (fun _ ->
        let key = Int32.of_int (1 + Sim.Prng.int prng 40) in
        match Sim.Prng.int prng 10 with
        | 0 | 1 -> `Delete key
        | 2 | 3 | 4 -> `Lookup key
        | _ -> `Insert (key, Int32.of_int (1 + Sim.Prng.int prng 1000)))
  in
  let model : (int32, int32) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (function
      | `Insert (k, v) -> Hashtbl.replace model k v
      | `Delete k -> Hashtbl.remove model k
      | `Lookup _ -> ())
    script;
  run r (fun () ->
      List.iteri
        (fun i kind ->
          let home = [| 0; 2; 3 |].(i) in
          let s =
            Dds.Hashtable.server ~rmem:r.rmems.(home) ~amsg:r.amsgs.(home)
              ~slots:64 ()
          in
          let t =
            Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind
              ?policy:pol s
          in
          List.iter
            (function
              | `Insert (key, value) -> Dds.Hashtable.insert t ~key ~value
              | `Delete key -> ignore (Dds.Hashtable.delete t key)
              | `Lookup key -> ignore (Dds.Hashtable.lookup t key))
            script;
          Dds.Hashtable.flush t;
          for k = 1 to 40 do
            let key = Int32.of_int k in
            let expect = Hashtbl.find_opt model key in
            check_bool
              (Printf.sprintf "%s: %s key %d agrees" name
                 (Dds.Kind.to_string kind) k)
              true
              (Dds.Hashtable.lookup t key = expect)
          done)
        Dds.Kind.all)

let htab_concurrent_disjoint () =
  let r = rig 4 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:128 ()
      in
      let done_ = ref 0 in
      for c = 1 to 3 do
        Cluster.Node.spawn r.nodes.(c) (fun () ->
            let t =
              Dds.Hashtable.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c)
                ~kind:(List.nth Dds.Kind.all (c - 1))
                s
            in
            for k = 0 to 19 do
              let key = Int32.of_int ((c * 100) + k) in
              Dds.Hashtable.insert t ~key ~value:(Int32.mul key 3l)
            done;
            Dds.Hashtable.flush t;
            incr done_)
      done;
      let rec join () =
        if !done_ < 3 then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ();
      (* Every key visible from a fourth handle of each kind. *)
      List.iter
        (fun kind ->
          let t =
            Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s
          in
          for c = 1 to 3 do
            for k = 0 to 19 do
              let key = Int32.of_int ((c * 100) + k) in
              check_bool "visible" true
                (Dds.Hashtable.lookup t key = Some (Int32.mul key 3l))
            done
          done)
        Dds.Kind.all)

(* ----------------------------- Queue ------------------------------- *)

(* The host cost of an RPC-structured enqueue: one call and the
   operation's bracket; 10% above the 10.6 words measured with pooled
   frames and call records, the send's trap charged at event level (12.6
   charged by the caller's own wait), the client's own request and reply buffers
   and the call served at interrupt level (25 in the dispatcher
   process; 87 with fresh frames, payload copies, a request and a reply
   buffer and an ivar per call). *)
let queue_rpc_enqueue_budget () =
  let r = rig 2 in
  let words =
    run r (fun () ->
        let s =
          Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:256 ()
        in
        let t =
          Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
            ~kind:Dds.Kind.Rpc s
        in
        Rig.words_per_op ~n:200 (fun () ->
            ignore (Dds.Queue.enqueue t 7l : int)))
  in
  Rig.within_budget "RPC queue enqueue" ~words ~budget:11.7

(* Claim brands come from the queue, -1 first: the same one-queue run
   twice in one process issues the same first claim CAS (counter 0 to
   brand -1), however many queue clients the process built before. *)
let queue_brand_per_queue () =
  let first_claim () =
    let r = rig 2 in
    let claim = ref None in
    Cluster.Node.subscribe r.nodes.(1) (function
      | Rmem.Remote_memory.Issued { cas = Some pair; _ } when !claim = None ->
          claim := Some pair
      | _ -> ());
    run r (fun () ->
        let s =
          Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:4 ()
        in
        let t =
          Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
            ~kind:Dds.Kind.Dx s
        in
        ignore (Dds.Queue.enqueue t 5l : int));
    !claim
  in
  let first = first_claim () in
  check_bool "first claim is counter 0 to brand -1" true
    (first = Some (0l, -1l));
  check_bool "a second identical run claims alike" true (first_claim () = first)

let queue_basic kind () =
  let r = rig 3 in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:32 ()
      in
      let t = Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s in
      check_bool "empty" true (Dds.Queue.try_dequeue t = None);
      let tickets = List.map (fun v -> Dds.Queue.enqueue t (Int32.of_int v)) [ 1; 2; 3 ] in
      check_bool "tickets are sequential" true (tickets = [ 0; 1; 2 ]);
      Dds.Queue.flush t;
      check_bool "fifo" true
        (List.map (fun _ -> Dds.Queue.dequeue t) [ (); (); () ]
        = [ 1l; 2l; 3l ]);
      check_bool "drained" true (Dds.Queue.try_dequeue t = None);
      (* A dequeue on the empty queue polls until an enqueue lands. *)
      let other = Dds.Queue.client ~rmem:r.rmems.(2) ~amsg:r.amsgs.(2) ~kind s in
      Cluster.Node.spawn r.nodes.(2) (fun () ->
          Sim.Proc.wait (Sim.Time.us 50);
          ignore (Dds.Queue.enqueue other 4l : int);
          Dds.Queue.flush other);
      check_i32 "a waiting dequeue gets the late item" 4l (Dds.Queue.dequeue t))

let queue_full kind () =
  let r = rig 2 in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:2 ()
      in
      let t = Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s in
      ignore (Dds.Queue.enqueue t 1l);
      ignore (Dds.Queue.enqueue t 2l);
      check_bool "full" true
        (match Dds.Queue.enqueue t 3l with
        | (_ : int) -> false
        | exception Dds.Queue.Full -> true))

let queue_mpmc () =
  (* Three DX producers, two RPC consumers on one queue: every element
     dequeued exactly once, per-producer order preserved. *)
  let r = rig 6 in
  let consumed = ref [] in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:128 ()
      in
      let per_producer = 20 in
      let produced = ref 0 in
      for p = 1 to 3 do
        Cluster.Node.spawn r.nodes.(p) (fun () ->
            let t =
              Dds.Queue.client ~rmem:r.rmems.(p) ~amsg:r.amsgs.(p)
                ~kind:Dds.Kind.Dx s
            in
            for i = 0 to per_producer - 1 do
              ignore (Dds.Queue.enqueue t (Int32.of_int ((p * 1000) + i)))
            done;
            Dds.Queue.flush t;
            incr produced)
      done;
      let total = 3 * per_producer in
      for c = 4 to 5 do
        Cluster.Node.spawn r.nodes.(c) (fun () ->
            let t =
              Dds.Queue.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c)
                ~kind:Dds.Kind.Rpc s
            in
            let rec drain () =
              if List.length !consumed < total then begin
                (match Dds.Queue.try_dequeue t with
                | Some v -> consumed := v :: !consumed
                | None -> Sim.Proc.wait (Sim.Time.us 50));
                drain ()
              end
            in
            drain ())
      done;
      let rec join () =
        if List.length !consumed < total then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ());
  let consumed = List.rev !consumed in
  check_int "all consumed" 60 (List.length consumed);
  check_bool "no duplicates" true
    (List.sort_uniq compare consumed |> List.length = 60);
  (* Per-producer FIFO: the subsequence from each producer ascends. *)
  List.iter
    (fun p ->
      let mine =
        List.filter (fun v -> Int32.to_int v / 1000 = p) consumed
      in
      check_bool "producer order" true (List.sort compare mine = mine))
    [ 1; 2; 3 ]

let queue_differential_under_jitter () =
  let r = rig ~seed:3 4 in
  let plan =
    Faults.Plan.make
      ~link:(Faults.Plan.link_faults ~jitter:0.4 ())
      ()
  in
  let _plane = Faults.Plane.create ~plan ~seed:17 r.testbed in
  run r (fun () ->
      List.iteri
        (fun i kind ->
          let home = [| 0; 2; 3 |].(i) in
          let s =
            Dds.Queue.server ~rmem:r.rmems.(home) ~amsg:r.amsgs.(home)
              ~capacity:64 ()
          in
          let t =
            Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1) ~kind s
          in
          for i = 1 to 30 do
            ignore (Dds.Queue.enqueue t (Int32.of_int i))
          done;
          Dds.Queue.flush t;
          for i = 1 to 30 do
            check_i32
              (Printf.sprintf "%s pos %d" (Dds.Kind.to_string kind) i)
              (Int32.of_int i) (Dds.Queue.dequeue t)
          done)
        Dds.Kind.all)

let queue_dx_producer_under_loss () =
  (* Lossy links: DX producer under a recovery policy, RPC consumer
     (whose claim is at-most-once by the call plane's dedup). *)
  let r = rig ~seed:8 3 in
  let plan =
    Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:0.15 ()) ()
  in
  let _plane = Faults.Plane.create ~plan ~seed:23 r.testbed in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:64 ()
      in
      let producer =
        Dds.Queue.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
          ~kind:Dds.Kind.Dx ~policy:(policy ()) s
      in
      for i = 1 to 20 do
        ignore (Dds.Queue.enqueue producer (Int32.of_int i))
      done;
      Dds.Queue.flush producer;
      let consumer =
        Dds.Queue.client ~rmem:r.rmems.(2) ~amsg:r.amsgs.(2)
          ~kind:Dds.Kind.Rpc s
      in
      for i = 1 to 20 do
        check_i32 "order preserved" (Int32.of_int i)
          (Dds.Queue.dequeue consumer)
      done)

(* ---------------------------- Register ----------------------------- *)

let reg_rig ?seed () =
  let r = rig ?seed 6 in
  (r, fun () ->
    Array.init 3 (fun k ->
        Dds.Register.replica ~rmem:r.rmems.(k) ~amsg:r.amsgs.(k) ()))

(* The host cost of a hybrid register write: a DX collect (one timed
   READ per replica) and an RPC store to each replica; 10% above the
   34.9 words measured with the calls' traps charged at event level (41
   charged by the caller's own waits), pooled frames and call records
   and every
   frame, active messages included, served and delivered at interrupt
   level (77 with the active messages in the dispatcher process, 104
   with a process switch per frame; 313 with fresh frames, payload
   copies, a request and a reply buffer and an ivar per call). *)
let reg_hybrid_write_budget () =
  let r, mk = reg_rig () in
  let words =
    run r (fun () ->
        let reps = mk () in
        let t =
          Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
            ~kind:Dds.Kind.Hybrid ~rank:1 reps
        in
        Rig.words_per_op ~n:200 (fun () ->
            ignore (Dds.Register.write t 42l : Dds.Tag.t)))
  in
  Rig.within_budget "hybrid register write" ~words ~budget:38.5

let reg_basic kind () =
  let r, mk = reg_rig () in
  run r (fun () ->
      let reps = mk () in
      let t =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3) ~kind ~rank:1
          reps
      in
      check_i32 "initial" 0l (Dds.Register.read t);
      ignore (Dds.Register.write t 42l);
      check_i32 "read back" 42l (Dds.Register.read t);
      ignore (Dds.Register.write t 43l);
      check_i32 "second write" 43l (Dds.Register.read t))

let reg_two_writers_tags () =
  let r, mk = reg_rig () in
  run r (fun () ->
      let reps = mk () in
      let a =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
          ~kind:Dds.Kind.Dx ~rank:1 reps
      in
      let b =
        Dds.Register.client ~rmem:r.rmems.(4) ~amsg:r.amsgs.(4)
          ~kind:Dds.Kind.Rpc ~rank:2 reps
      in
      let ta = Dds.Register.write a 10l in
      let tb = Dds.Register.write b 20l in
      check_bool "second write has the higher tag" true
        (Dds.Tag.pack tb > Dds.Tag.pack ta);
      check_i32 "both handles converge" 20l (Dds.Register.read a))

let reg_monotonic_reads () =
  (* A writer streams ascending values while a DX reader reads
     concurrently: the reader's sequence must never go backwards. *)
  let r, mk = reg_rig ~seed:6 () in
  let seen = ref [] in
  run r (fun () ->
      let reps = mk () in
      let writer_done = ref false in
      Cluster.Node.spawn r.nodes.(3) (fun () ->
          let w =
            Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
              ~kind:Dds.Kind.Dx ~rank:1 reps
          in
          for v = 1 to 15 do
            ignore (Dds.Register.write w (Int32.of_int v))
          done;
          writer_done := true);
      Cluster.Node.spawn r.nodes.(4) (fun () ->
          let rd =
            Dds.Register.client ~rmem:r.rmems.(4) ~amsg:r.amsgs.(4)
              ~kind:Dds.Kind.Dx ~rank:2 reps
          in
          let rec loop () =
            seen := Dds.Register.read rd :: !seen;
            if not !writer_done then begin
              Sim.Proc.wait (Sim.Time.us 20);
              loop ()
            end
          in
          loop ());
      let rec join () =
        if not !writer_done then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ());
  let seq = List.rev !seen in
  check_bool "read something" true (List.length seq > 2);
  check_bool "monotone" true (List.sort compare seq = seq)

let reg_read_repairs_stale_replica () =
  let r, mk = reg_rig () in
  run r (fun () ->
      let reps = mk () in
      (* Hand-craft divergence: replica 0 holds (ts 5, rank 1) = 50,
         replicas 1 and 2 an older (ts 2, rank 1) = 20. *)
      let put k ts v =
        let space = Dds.Register.replica_space reps.(k) in
        Cluster.Address_space.write_word space ~addr:4 v;
        Cluster.Address_space.write_word space ~addr:0
          (Dds.Tag.pack { Dds.Tag.ts; wr = 1 })
      in
      put 0 5 50;
      put 1 2 20;
      put 2 2 20;
      let t =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
          ~kind:Dds.Kind.Dx ~rank:2 reps
      in
      check_i32 "adopts highest" 50l (Dds.Register.read t);
      (* The write-back phase must have repaired the stale majority. *)
      Sim.Proc.wait (Sim.Time.ms 1);
      Array.iter
        (fun rep ->
          let space = Dds.Register.replica_space rep in
          check_int "repaired value" 50
            (Cluster.Address_space.read_word space ~addr:4))
        reps)

let reg_no_write_back_leaves_stale () =
  let r, mk = reg_rig () in
  run r (fun () ->
      let reps = mk () in
      let put k ts v =
        let space = Dds.Register.replica_space reps.(k) in
        Cluster.Address_space.write_word space ~addr:4 v;
        Cluster.Address_space.write_word space ~addr:0
          (Dds.Tag.pack { Dds.Tag.ts; wr = 1 })
      in
      put 0 5 50;
      put 1 2 20;
      put 2 2 20;
      let t =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
          ~kind:Dds.Kind.Dx ~rank:2 ~write_back:false reps
      in
      check_i32 "still adopts highest" 50l (Dds.Register.read t);
      Sim.Proc.wait (Sim.Time.ms 1);
      (* The broken variant leaves the stale majority in place: the
         new/old-inversion raw material the model checker exploits. *)
      check_int "replica 1 untouched" 20
        (Cluster.Address_space.read_word
           (Dds.Register.replica_space reps.(1))
           ~addr:4))

let reg_dx_under_loss () =
  let r, mk = reg_rig ~seed:4 () in
  let plan =
    Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:0.12 ()) ()
  in
  let _plane = Faults.Plane.create ~plan ~seed:31 r.testbed in
  run r (fun () ->
      let reps = mk () in
      let t =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
          ~kind:Dds.Kind.Dx ~rank:1 ~policy:(policy ()) reps
      in
      for v = 1 to 8 do
        ignore (Dds.Register.write t (Int32.of_int v));
        check_i32 "read-your-write" (Int32.of_int v) (Dds.Register.read t)
      done)

let reg_differential () =
  let r = rig ~seed:3 10 in
  run r (fun () ->
      let results =
        List.map
          (fun (kind, base) ->
            let reps =
              Array.init 3 (fun k ->
                  Dds.Register.replica ~rmem:r.rmems.(base + k)
                    ~amsg:r.amsgs.(base + k) ())
            in
            let t =
              Dds.Register.client ~rmem:r.rmems.(9) ~amsg:r.amsgs.(9) ~kind
                ~rank:1 reps
            in
            List.map
              (fun v ->
                ignore (Dds.Register.write t v);
                Dds.Register.read t)
              [ 5l; 9l; 13l ])
          [
            (Dds.Kind.Dx, 0); (Dds.Kind.Rpc, 3); (Dds.Kind.Hybrid, 6);
          ]
      in
      match results with
      | [ dx; rpc; hybrid ] ->
          check_bool "dx = rpc" true (dx = rpc);
          check_bool "dx = hybrid" true (dx = hybrid);
          check_bool "values" true (dx = [ 5l; 9l; 13l ])
      | _ -> assert false)

(* ------------------------- One fallback rule ------------------------ *)

(* Run [body c] on nodes 1 .. [clients] at once and wait for them all. *)
let concurrently r ~clients body =
  let done_ = ref 0 in
  for c = 1 to clients do
    Cluster.Node.spawn r.nodes.(c) (fun () ->
        body c;
        incr done_)
  done;
  let rec join () =
    if !done_ < clients then begin
      Sim.Proc.wait (Sim.Time.ms 1);
      join ()
    end
  in
  join ()

(* Each scenario runs clients of one kind and answers their summed
   fallbacks. *)

(* One client writes three times, reading after each write: every read
   finds all three replicas holding the written pair, so only the three
   store phases of the writes can fall back. *)
let reg_fallbacks kind () =
  let r, mk = reg_rig () in
  run r (fun () ->
      let t =
        Dds.Register.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3) ~kind ~rank:1
          (mk ())
      in
      for v = 1 to 3 do
        ignore (Dds.Register.write t (Int32.of_int v) : Dds.Tag.t);
        check_i32 "read back" (Int32.of_int v) (Dds.Register.read t)
      done;
      Dds.Register.rpc_fallbacks t)

(* Four clients start at once and insert two keys each, all eight
   sharing one home slot of a 16-slot table, so their claims race for
   the same free slots and the last to win loses three times (two
   claims do, in this schedule).  Every key is found afterwards. *)
let htab_fallbacks kind () =
  let r = rig 5 in
  let slots = 16 in
  let keys = Array.of_list (colliding ~slots 8) in
  let fallbacks = ref 0 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots ()
      in
      concurrently r ~clients:4 (fun c ->
          let t =
            Dds.Hashtable.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c) ~kind s
          in
          for i = 0 to 1 do
            let key = keys.((2 * (c - 1)) + i) in
            Dds.Hashtable.insert t ~key ~value:(Int32.neg key)
          done;
          Dds.Hashtable.flush t;
          fallbacks := !fallbacks + Dds.Hashtable.rpc_fallbacks t);
      let t =
        Dds.Hashtable.client ~rmem:r.rmems.(1) ~amsg:r.amsgs.(1)
          ~kind:Dds.Kind.Rpc s
      in
      Array.iter
        (fun key ->
          check_bool "inserted key found" true
            (Dds.Hashtable.lookup t key = Some (Int32.neg key)))
        keys);
  !fallbacks

(* Four clients hammering one tail word: the CAS storms push hybrid
   enqueues onto the RPC path. *)
let queue_fallbacks kind () =
  let r = rig ~seed:2 5 in
  let fallbacks = ref 0 in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:512 ()
      in
      concurrently r ~clients:4 (fun c ->
          let t =
            Dds.Queue.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c) ~kind s
          in
          for i = 0 to 63 do
            ignore (Dds.Queue.enqueue t (Int32.of_int ((c * 1000) + i)) : int)
          done;
          fallbacks := !fallbacks + Dds.Queue.rpc_fallbacks t));
  !fallbacks

(* A client counts one fallback per hybrid phase that ended on RPC
   (Dds.Plane.phase), and a DX or RPC client none. *)
let fallback_rule () =
  let rows =
    [
      ("register, hybrid", reg_fallbacks Dds.Kind.Hybrid, "exactly 3", ( = ) 3);
      ("hashtable, hybrid", htab_fallbacks Dds.Kind.Hybrid, "some", ( < ) 0);
      ("queue, hybrid", queue_fallbacks Dds.Kind.Hybrid, "some", ( < ) 0);
    ]
    @ List.concat_map
        (fun kind ->
          let k = Dds.Kind.to_string kind in
          [
            ("register, " ^ k, reg_fallbacks kind, "none", ( = ) 0);
            ("hashtable, " ^ k, htab_fallbacks kind, "none", ( = ) 0);
            ("queue, " ^ k, queue_fallbacks kind, "none", ( = ) 0);
          ])
        [ Dds.Kind.Dx; Dds.Kind.Rpc ]
  in
  List.iter
    (fun (name, fallbacks, expected, ok) ->
      let n = fallbacks () in
      check_bool
        (Printf.sprintf "%s: %d fallbacks, expected %s" name n expected)
        true (ok n))
    rows

(* ------------------- linearizability (logical) --------------------- *)

let analysis_rig n =
  let testbed = Cluster.Testbed.create ~nodes:n () in
  let nodes = Array.init n (Cluster.Testbed.node testbed) in
  let rmems = Array.map Rmem.Remote_memory.attach nodes in
  let monitor = Analysis.Monitor.create (Cluster.Testbed.engine testbed) in
  Array.iter (Analysis.Monitor.attach monitor) nodes;
  let amsgs = Array.map Amsg.attach nodes in
  ({ testbed; nodes; rmems; amsgs }, monitor)

let assert_linearizable name monitor =
  match Analysis.Linearize.check (Analysis.Monitor.history monitor) with
  | Analysis.Linearize.Pass stats ->
      check_bool (name ^ " checked real events") true (stats.events > 0)
  | Analysis.Linearize.Fail _ as v ->
      Alcotest.fail (name ^ ": " ^ Analysis.Linearize.describe v)

let lin_hashtable () =
  let r, monitor = analysis_rig 4 in
  run r (fun () ->
      let s =
        Dds.Hashtable.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~slots:64 ()
      in
      let done_ = ref 0 in
      for c = 1 to 3 do
        Cluster.Node.spawn r.nodes.(c) (fun () ->
            let t =
              Dds.Hashtable.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c)
                ~kind:(List.nth Dds.Kind.all (c - 1))
                s
            in
            (* Everyone hammers key 9 and a private key. *)
            for i = 1 to 5 do
              Dds.Hashtable.insert t ~key:9l
                ~value:(Int32.of_int ((c * 10) + i));
              ignore (Dds.Hashtable.lookup t 9l);
              Dds.Hashtable.insert t ~key:(Int32.of_int (100 + c))
                ~value:(Int32.of_int i)
            done;
            incr done_)
      done;
      let rec join () =
        if !done_ < 3 then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ());
  assert_linearizable "hashtable" monitor

let lin_queue () =
  let r, monitor = analysis_rig 4 in
  run r (fun () ->
      let s =
        Dds.Queue.server ~rmem:r.rmems.(0) ~amsg:r.amsgs.(0) ~capacity:64 ()
      in
      let consumed = ref 0 in
      for p = 1 to 2 do
        Cluster.Node.spawn r.nodes.(p) (fun () ->
            let t =
              Dds.Queue.client ~rmem:r.rmems.(p) ~amsg:r.amsgs.(p)
                ~kind:(if p = 1 then Dds.Kind.Dx else Dds.Kind.Rpc)
                s
            in
            for i = 0 to 9 do
              ignore (Dds.Queue.enqueue t (Int32.of_int ((p * 100) + i)))
            done;
            Dds.Queue.flush t)
      done;
      Cluster.Node.spawn r.nodes.(3) (fun () ->
          let t =
            Dds.Queue.client ~rmem:r.rmems.(3) ~amsg:r.amsgs.(3)
              ~kind:Dds.Kind.Hybrid s
          in
          for _ = 1 to 20 do
            ignore (Dds.Queue.dequeue t);
            incr consumed
          done);
      let rec join () =
        if !consumed < 20 then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ());
  assert_linearizable "queue" monitor

let lin_register () =
  let r, monitor = analysis_rig 6 in
  run r (fun () ->
      let reps =
        Array.init 3 (fun k ->
            Dds.Register.replica ~rmem:r.rmems.(k) ~amsg:r.amsgs.(k) ())
      in
      let done_ = ref 0 in
      List.iteri
        (fun i (c, kind) ->
          Cluster.Node.spawn r.nodes.(c) (fun () ->
              let t =
                Dds.Register.client ~rmem:r.rmems.(c) ~amsg:r.amsgs.(c) ~kind
                  ~rank:(i + 1) reps
              in
              for v = 1 to 4 do
                ignore (Dds.Register.write t (Int32.of_int ((c * 10) + v)));
                ignore (Dds.Register.read t)
              done;
              incr done_))
        [ (3, Dds.Kind.Dx); (4, Dds.Kind.Rpc); (5, Dds.Kind.Hybrid) ];
      let rec join () =
        if !done_ < 3 then begin
          Sim.Proc.wait (Sim.Time.ms 1);
          join ()
        end
      in
      join ());
  assert_linearizable "register" monitor

(* ------------------------- seeded scenario ------------------------- *)

let seeded_register_fifo_clean () =
  (* The broken register (no write-back) must pass a default FIFO run —
     only the model checker's exploration exposes it. *)
  let monitor = Analysis.Scenarios.run Analysis.Scenarios.dds_register_no_writeback in
  check_int "no races under FIFO" 0
    (List.length (Analysis.Race.find monitor));
  check_int "no findings under FIFO" 0
    (List.length (Analysis.Lint.check monitor))

let suite =
  [
    Alcotest.test_case "probe: hit reports index and probes" `Quick
      probe_hit_and_probes;
    Alcotest.test_case "probe: absent stops at free slot" `Quick
      probe_absent_free;
    Alcotest.test_case "probe: first tombstone reused, note carried" `Quick
      probe_tombstone_reuse_and_note;
    Alcotest.test_case "probe: walk wraps modulo slots" `Quick
      probe_wraps_modulo;
    Alcotest.test_case "probe: full table exhausts" `Quick probe_full_table;
    QCheck_alcotest.to_alcotest probe_matches_reference;
    QCheck_alcotest.to_alcotest tag_roundtrip;
    QCheck_alcotest.to_alcotest tag_order_preserved;
    QCheck_alcotest.to_alcotest tag_cell_roundtrip;
    Alcotest.test_case "tag: busy sentinels rejected by decode" `Quick
      tag_busy_cells_refused;
    Alcotest.test_case "call: round trip" `Quick call_round_trip;
    Alcotest.test_case "call: endpoint dies with its testbed" `Quick
      call_endpoint_dies_with_testbed;
    Alcotest.test_case "call: at-most-once under loss" `Quick
      call_at_most_once_under_loss;
    Alcotest.test_case "hashtable: basic ops (dx)" `Quick
      (htab_basic Dds.Kind.Dx);
    Alcotest.test_case "hashtable: basic ops (rpc)" `Quick
      (htab_basic Dds.Kind.Rpc);
    Alcotest.test_case "hashtable: basic ops (hybrid)" `Quick
      (htab_basic Dds.Kind.Hybrid);
    Alcotest.test_case "hashtable: reserved keys refused" `Quick
      htab_reserved_keys;
    Alcotest.test_case "hashtable: full raises, tombstones reopen (dx)"
      `Quick (htab_full Dds.Kind.Dx);
    Alcotest.test_case "hashtable: full raises, tombstones reopen (rpc)"
      `Quick (htab_full Dds.Kind.Rpc);
    Alcotest.test_case "hashtable: tombstone keeps chains intact" `Quick
      htab_tombstone_chain;
    Alcotest.test_case "hashtable: differential, fault-free" `Quick
      (htab_differential "fault-free");
    Alcotest.test_case "hashtable: differential under jitter" `Quick
      (htab_differential "jitter"
         ~plan:
           (Faults.Plan.make
              ~link:
                (Faults.Plan.link_faults ~jitter:0.4 ())
              ()));
    Alcotest.test_case "hashtable: differential under loss" `Quick
      (htab_differential "loss"
         ~plan:(Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:0.1 ()) ())
         ~plan_seed:13 ~policy:(policy ()));
    Alcotest.test_case "hashtable: concurrent clients, one per kind" `Quick
      htab_concurrent_disjoint;
    Alcotest.test_case "queue: fifo per kind (dx)" `Quick
      (queue_basic Dds.Kind.Dx);
    Alcotest.test_case "queue: fifo per kind (rpc)" `Quick
      (queue_basic Dds.Kind.Rpc);
    Alcotest.test_case "queue: fifo per kind (hybrid)" `Quick
      (queue_basic Dds.Kind.Hybrid);
    Alcotest.test_case "queue: capacity exhausts (dx)" `Quick
      (queue_full Dds.Kind.Dx);
    Alcotest.test_case "queue: capacity exhausts (rpc)" `Quick
      (queue_full Dds.Kind.Rpc);
    Alcotest.test_case "queue: mpmc exactly-once, producer order" `Quick
      queue_mpmc;
    Alcotest.test_case "queue: differential under jitter" `Quick
      queue_differential_under_jitter;
    Alcotest.test_case "queue: dx producer under loss" `Quick
      queue_dx_producer_under_loss;
    Alcotest.test_case "fallback: one rule per phase" `Quick fallback_rule;
    Alcotest.test_case "register: basic (dx)" `Quick (reg_basic Dds.Kind.Dx);
    Alcotest.test_case "register: basic (rpc)" `Quick (reg_basic Dds.Kind.Rpc);
    Alcotest.test_case "register: basic (hybrid)" `Quick
      (reg_basic Dds.Kind.Hybrid);
    Alcotest.test_case "register: writers order by tag" `Quick
      reg_two_writers_tags;
    Alcotest.test_case "register: reads never regress" `Quick
      reg_monotonic_reads;
    Alcotest.test_case "register: read repairs stale replicas" `Quick
      reg_read_repairs_stale_replica;
    Alcotest.test_case "register: write_back:false leaves them stale" `Quick
      reg_no_write_back_leaves_stale;
    Alcotest.test_case "register: dx under loss with policy" `Quick
      reg_dx_under_loss;
    Alcotest.test_case "register: differential across kinds" `Quick
      reg_differential;
    Alcotest.test_case "linearizable: hashtable, mixed kinds" `Quick
      lin_hashtable;
    Alcotest.test_case "linearizable: queue, mixed kinds" `Quick lin_queue;
    Alcotest.test_case "linearizable: register, mixed kinds" `Quick
      lin_register;
    Alcotest.test_case "seeded register bug is FIFO-clean" `Quick
      seeded_register_fifo_clean;
    Alcotest.test_case "call: reply cache is a 16-slot ring" `Quick
      call_reply_cache_ring;
    Alcotest.test_case "call: free cache slots match no request id" `Quick
      call_cache_free_slots_match_no_id;
    Alcotest.test_case "call: RPC round-trip allocation budget" `Quick
      call_allocation_budget;
    Alcotest.test_case "call: stale timer never fires into a reused record"
      `Quick call_stale_timer_never_fires_into_reuse;
    Alcotest.test_case "call: reply longer than the buffer refused" `Quick
      call_reply_longer_than_buffer;
    Alcotest.test_case "call: frames back to the pool after calls" `Quick
      call_frames_back_to_pool;
    Alcotest.test_case "hashtable: hybrid lookup allocation budget" `Quick
      (htab_hybrid_budget `Lookup ~budget:14.5);
    Alcotest.test_case "hashtable: hybrid insert allocation budget" `Quick
      (htab_hybrid_budget `Insert ~budget:22.8);
    Alcotest.test_case "queue: brands come from the queue" `Quick
      queue_brand_per_queue;
    Alcotest.test_case "queue: RPC enqueue allocation budget" `Quick
      queue_rpc_enqueue_budget;
    Alcotest.test_case "register: hybrid write allocation budget" `Quick
      reg_hybrid_write_budget;
    Alcotest.test_case "call: a request shorter than its id is dropped" `Quick
      call_short_request_dropped;
  ]
