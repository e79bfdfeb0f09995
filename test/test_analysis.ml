(* Tests for the analysis layer: vector clocks, the race detector and
   protocol lint over the replay scenarios, and regression coverage for
   the reply-path hardening that the monitor hooks exposed. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Vector clocks ---------------- *)

let vclock_orders () =
  let module V = Analysis.Vclock in
  let a = V.tick (V.tick V.empty 0) 0 in
  let b = V.tick V.empty 1 in
  check_int "missing component reads zero" 0 (V.get V.empty 5);
  check_int "two ticks" 2 (V.get a 0);
  check_bool "empty <= any" true (V.leq V.empty a);
  check_bool "concurrent not <=" false (V.leq a b);
  (match V.compare a b with
  | V.Concurrent -> ()
  | _ -> Alcotest.fail "disjoint ticks must be concurrent");
  let j = V.join a b in
  check_int "join keeps a" 2 (V.get j 0);
  check_int "join keeps b" 1 (V.get j 1);
  (match V.compare a j with
  | V.Before -> ()
  | _ -> Alcotest.fail "a must be before its join");
  (match V.compare j a with
  | V.After -> ()
  | _ -> Alcotest.fail "join must be after a");
  match V.compare j (V.join b a) with
  | V.Equal -> ()
  | _ -> Alcotest.fail "join is commutative"

(* A clock is fully determined by the multiset of agent ids ticked, so
   a small id list is a complete generator. *)
let vclock_of_ticks ticks =
  List.fold_left Analysis.Vclock.tick Analysis.Vclock.empty ticks

let vclock_gen = QCheck.(list_of_size Gen.(0 -- 12) (int_bound 4))

let vclock_join_is_lub =
  QCheck.Test.make ~name:"vclock join is the least upper bound" ~count:300
    QCheck.(pair vclock_gen vclock_gen)
    (fun (ta, tb) ->
      let module V = Analysis.Vclock in
      let a = vclock_of_ticks ta and b = vclock_of_ticks tb in
      let j = V.join a b in
      V.leq a j && V.leq b j
      && V.compare j (V.join b a) = V.Equal
      && V.compare (V.join a a) a = V.Equal
      && V.compare (V.join a (V.join a b)) j = V.Equal)

let vclock_compare_matches_leq =
  QCheck.Test.make ~name:"vclock compare agrees with leq" ~count:300
    QCheck.(pair vclock_gen vclock_gen)
    (fun (ta, tb) ->
      let module V = Analysis.Vclock in
      let a = vclock_of_ticks ta and b = vclock_of_ticks tb in
      let le = V.leq a b and ge = V.leq b a in
      match V.compare a b with
      | V.Equal -> le && ge
      | V.Before -> le && not ge
      | V.After -> ge && not le
      | V.Concurrent -> (not le) && not ge)

let vclock_tick_strictly_increases =
  QCheck.Test.make ~name:"vclock tick strictly increases" ~count:300
    QCheck.(pair vclock_gen (int_bound 4))
    (fun (ta, i) ->
      let module V = Analysis.Vclock in
      let a = vclock_of_ticks ta in
      let a' = V.tick a i in
      V.compare a a' = V.Before && V.get a' i = V.get a i + 1)

let vclock_join_is_monotone =
  QCheck.Test.make ~name:"vclock join is monotone in each argument" ~count:300
    QCheck.(triple vclock_gen vclock_gen vclock_gen)
    (fun (ta, tb, tc) ->
      let module V = Analysis.Vclock in
      let a = vclock_of_ticks ta
      and b = vclock_of_ticks tb
      and c = vclock_of_ticks tc in
      (not (V.leq a b)) || V.leq (V.join a c) (V.join b c))

let vclock_ragged_lengths () =
  (* Clocks over different agent-id ranges compare by padding with
     zeros; a missing component is exactly a zero component. *)
  let module V = Analysis.Vclock in
  let short = V.tick V.empty 0 in
  let long = V.tick (V.tick V.empty 0) 3 in
  check_int "phantom component" 0 (V.get short 3);
  check_bool "short <= long" true (V.leq short long);
  check_bool "long not <= short" false (V.leq long short);
  (match V.compare short long with
  | V.Before -> ()
  | _ -> Alcotest.fail "padding must give Before");
  match V.compare (V.join short V.empty) short with
  | V.Equal -> ()
  | _ -> Alcotest.fail "join with empty is identity"

(* ---------------- Schedule certificates ---------------- *)

let schedule_roundtrip () =
  let module S = Analysis.Schedule in
  Alcotest.(check string) "empty prints dash" "-" (S.to_string S.empty);
  check_bool "empty parses" true (S.of_string "-" = S.empty);
  check_bool "blank parses" true (S.of_string "  " = S.empty);
  let t = [ { S.index = 1; count = 3 }; { S.index = 0; count = 2 } ] in
  Alcotest.(check string) "renders" "1/3,0/2" (S.to_string t);
  check_bool "round trips" true (S.of_string (S.to_string t) = t);
  check_int "length" 2 (S.length t);
  let rejects s =
    try
      ignore (S.of_string s);
      false
    with Invalid_argument _ -> true
  in
  check_bool "index out of range" true (rejects "3/3");
  check_bool "count below two" true (rejects "0/1");
  check_bool "malformed pair" true (rejects "1-3");
  check_bool "junk" true (rejects "1/3,x")

(* ---------------- Lint: notify-storm and unbounded-retry ------- *)

let monitored_duo () =
  let d = Rig.duo () in
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach monitor d.Rig.node0;
  Analysis.Monitor.attach monitor d.Rig.node1;
  (d, monitor)

let rules findings = List.map (fun f -> f.Analysis.Lint.rule) findings

let notify_storm_flagged () =
  let d, monitor = monitored_duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~policy:Rmem.Segment.Always d in
      (* Every write to a notify:always segment posts a notification;
         a burst of small writes is the storm the rule is after. *)
      for i = 0 to Analysis.Lint.poll_threshold + 1 do
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 8)
          (Bytes.make 8 'x')
      done;
      Rmem.Remote_memory.fence d.Rig.rmem0 desc);
  let findings = Analysis.Lint.check monitor in
  check_bool "notify-storm fires" true
    (List.mem "notify-storm" (rules findings))

let notify_storm_spares_conditional () =
  let d, monitor = monitored_duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~policy:Rmem.Segment.Conditional d in
      for i = 0 to Analysis.Lint.poll_threshold + 1 do
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 8)
          (Bytes.make 8 'x')
      done;
      Rmem.Remote_memory.fence d.Rig.rmem0 desc);
  let findings = Analysis.Lint.check monitor in
  check_bool "conditional-policy bursts are fine" false
    (List.mem "notify-storm" (rules findings))

let unbounded_retry_flagged () =
  let d, monitor = monitored_duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      (* Park the lock word at a value no CAS will match, then spin. *)
      Cluster.Address_space.write_word d.Rig.space1 ~addr:0 9;
      for _ = 1 to Analysis.Lint.poll_threshold + 2 do
        let ok =
          Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
            ~new_value:1 ()
          = 0
        in
        assert (not ok)
      done);
  let findings = Analysis.Lint.check monitor in
  check_bool "unbounded-retry fires" true
    (List.mem "unbounded-retry" (rules findings))

let backoff_retry_clean () =
  let d, monitor = monitored_duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Address_space.write_word d.Rig.space1 ~addr:0 9;
      for _ = 1 to Analysis.Lint.poll_threshold + 2 do
        let ok =
          Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
            ~new_value:1 ()
          = 0
        in
        assert (not ok);
        (* Pausing past the backoff floor resets the consecutive run. *)
        Sim.Proc.wait Analysis.Monitor.retry_backoff_floor;
        Sim.Proc.wait (Sim.Time.us 1)
      done);
  let findings = Analysis.Lint.check monitor in
  check_bool "backed-off retries are fine" false
    (List.mem "unbounded-retry" (rules findings))

(* ---------------- Findings in first-occurrence order ------------ *)

(* Export one 4 KB segment per base on node 1 under [policy] and import
   it on node 0, in list order. *)
let segments_on_node1 d ~policy bases =
  List.map
    (fun base ->
      let segment =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base
          ~len:4096 ~rights:Rmem.Rights.all ~policy
          ~name:(Printf.sprintf "seg-%d" base) ()
      in
      ( Rmem.Segment.id segment,
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:4096 ~rights:Rmem.Rights.all () ))
    bases

(* The segment ids of [keys], a run of one id counted once. *)
let segment_ids keys =
  List.fold_right
    (fun (key : Analysis.Access.seg_key) acc ->
      match acc with
      | seg :: _ when seg = key.seg -> acc
      | _ -> key.seg :: acc)
    keys []

(* Two notify:always segments stormed one after the other, the later
   export first: the findings name them in the order the storms began,
   not in the order a hash table keeps their keys. *)
let lint_first_occurrence_order () =
  let d, monitor = monitored_duo () in
  let stormed =
    Rig.run d (fun () ->
        let segments =
          List.rev
            (segments_on_node1 d ~policy:Rmem.Segment.Always [ 0; 4096 ])
        in
        List.iter
          (fun (_, desc) ->
            for i = 0 to Analysis.Lint.poll_threshold + 1 do
              Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 8)
                (Bytes.make 8 'x')
            done;
            Rmem.Remote_memory.fence d.Rig.rmem0 desc)
          segments;
        List.map fst segments)
  in
  let found =
    List.filter_map
      (fun f ->
        if f.Analysis.Lint.rule = "notify-storm" then Some f.Analysis.Lint.key
        else None)
      (Analysis.Lint.check monitor)
  in
  Alcotest.(check (list int)) "storms in the order they began" stormed
    (segment_ids found)

(* Two agents write the same bytes of two segments, the later export
   first, with nothing ordering them: the races name the segments in the
   order they were first written. *)
let race_first_occurrence_order () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let monitor = Analysis.Monitor.create (Cluster.Testbed.engine testbed) in
  List.iter (Analysis.Monitor.attach monitor) (Cluster.Testbed.nodes testbed);
  let home = Cluster.Testbed.node testbed 0 in
  let space = Cluster.Node.new_address_space home in
  let rmem =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let written = ref [] in
  Cluster.Testbed.run testbed (fun () ->
      let segments =
        List.map
          (fun base ->
            Rmem.Remote_memory.export rmem.(0) ~space ~base ~len:4096
              ~rights:Rmem.Rights.all ~name:(Printf.sprintf "seg-%d" base) ())
          [ 0; 4096 ]
        |> List.rev
      in
      written := List.map Rmem.Segment.id segments;
      for c = 1 to 2 do
        Cluster.Node.spawn (Cluster.Testbed.node testbed c) (fun () ->
            List.iter
              (fun segment ->
                let desc =
                  Rmem.Remote_memory.import rmem.(c)
                    ~remote:(Cluster.Node.addr home)
                    ~segment_id:(Rmem.Segment.id segment)
                    ~generation:(Rmem.Segment.generation segment)
                    ~size:4096 ~rights:Rmem.Rights.all ()
                in
                Rmem.Remote_memory.write rmem.(c) desc ~off:0
                  (Bytes.make 64 (Char.chr (0x60 + c)));
                Rmem.Remote_memory.fence rmem.(c) desc)
              segments)
      done);
  let raced =
    List.map (fun r -> r.Analysis.Race.key) (Analysis.Race.find monitor)
  in
  Alcotest.(check (list int)) "races in the order the segments were written"
    !written (segment_ids raced)

(* ---------------- Scenario expectations ---------------- *)

let run_scenario prepare =
  let monitor = Analysis.Scenarios.run prepare in
  (monitor, Analysis.Race.find monitor, Analysis.Lint.check monitor)

let racy_flagged () =
  let _, races, _ = run_scenario Analysis.Scenarios.racy in
  check_bool "two unsynchronized writers race" true (races <> []);
  let r = List.hd races in
  check_bool "distinct agents" true
    (r.Analysis.Race.a.Analysis.Access.agent
    <> r.Analysis.Race.b.Analysis.Access.agent);
  check_bool "at least one side writes" true
    (Analysis.Access.is_write r.Analysis.Race.a
    || Analysis.Access.is_write r.Analysis.Race.b)

let producer_consumer_clean () =
  let monitor, races, findings =
    run_scenario Analysis.Scenarios.producer_consumer
  in
  check_int "notification-synchronized ring has no races" 0
    (List.length races);
  check_int "and no findings" 0 (List.length findings);
  check_bool "the run actually recorded accesses" true
    (Analysis.Monitor.accesses monitor <> [])

let kv_store_clean () =
  let _, races, findings = run_scenario Analysis.Scenarios.kv_store in
  check_int "fenced per-client slots are race free" 0 (List.length races);
  check_int "no findings" 0 (List.length findings)

let fence_sensitivity () =
  let _, races_fenced, _ = run_scenario Analysis.Scenarios.file_service in
  check_int "lock + fence: clean" 0 (List.length races_fenced);
  let _, races_unfenced, _ =
    run_scenario Analysis.Scenarios.file_service_nofence
  in
  check_bool "lock without fence: in-flight writes race" true
    (races_unfenced <> [])

let name_service_lint () =
  let _, races, findings = run_scenario Analysis.Scenarios.name_service in
  check_int "misuse, not races" 0 (List.length races);
  let has rule =
    List.exists (fun f -> f.Analysis.Lint.rule = rule) findings
  in
  check_bool "stale descriptor reuse caught" true (has "stale-generation");
  check_bool "polling a notify:never segment caught" true (has "poll-never");
  (* One more input: a CAS through a read-only descriptor, a WRITE to a
     write-inhibited segment, a READ of unpinned pages and a READ of a
     revoked segment, each refused. *)
  let d, monitor = monitored_duo () in
  Rig.run d (fun () ->
      let refused f =
        match f () with () -> () | exception Rmem.Status.Remote_error _ -> ()
      in
      let segment, desc = Rig.shared_segment ~len:8192 d in
      let _, read_only = Rig.shared_segment ~len:4096 ~rights:Rmem.Rights.read_only d in
      let dst = Rig.buffer0 d in
      let read desc ~soff () =
        Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff ~count:4 ~dst ~doff:0 ()
      in
      refused (fun () ->
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 read_only ~doff:0 ~old_value:0
               ~new_value:1 ()
              : int));
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4 'x');
      refused (fun () -> Rmem.Remote_memory.fence d.Rig.rmem0 desc);
      Rmem.Segment.set_write_inhibit segment false;
      Cluster.Address_space.unpin d.Rig.space1 ~addr:4096 ~len:4096;
      refused (read desc ~soff:4096);
      ignore (Cluster.Address_space.pin d.Rig.space1 ~addr:4096 ~len:4096 : int);
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      refused (read desc ~soff:0));
  let findings = Analysis.Lint.check monitor in
  let has rule = List.exists (fun f -> f.Analysis.Lint.rule = rule) findings in
  List.iter
    (fun rule -> check_bool (rule ^ " caught") true (has rule))
    [ "rights"; "write-inhibit"; "unpinned"; "revoked-segment" ]

(* ---------------- Reply-path regressions ---------------- *)

(* WRITE is unacknowledged, so a dropped write must surface through the
   negative-ack channel: [take_write_failure] returns it once, and
   [fence] turns it into an exception instead of silently succeeding. *)
let nacked_write_surfaces () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 32 'x');
      Sim.Proc.wait (Sim.Time.us 500);
      (match Rmem.Remote_memory.take_write_failure d.Rig.rmem0 desc with
      | Some Rmem.Status.Write_inhibited -> ()
      | Some s -> Alcotest.failf "wrong status %s" (Rmem.Status.to_string s)
      | None -> Alcotest.fail "nack not recorded");
      check_bool "failure is consumed" true
        (Rmem.Remote_memory.take_write_failure d.Rig.rmem0 desc = None))

let fence_raises_on_nack () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 32 'x');
      (* Reads still work under write inhibit, so the fence's probe
         succeeds — the raise must come from the recorded nack. *)
      (match Rmem.Remote_memory.fence d.Rig.rmem0 desc with
      | () -> Alcotest.fail "fence must report the dropped write"
      | exception Rmem.Status.Remote_error Rmem.Status.Write_inhibited -> ());
      check_bool "fence consumed the failure" true
        (Rmem.Remote_memory.take_write_failure d.Rig.rmem0 desc = None);
      Rmem.Segment.set_write_inhibit segment false;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 32 'y');
      Rmem.Remote_memory.fence d.Rig.rmem0 desc)

(* A reply of the wrong kind for a pending request must fail that
   request cleanly (fill its completion with an error) rather than be
   dropped on the floor leaving the issuer blocked forever. *)
let mismatched_reply_fails_request () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _segment, desc = Rig.shared_segment d in
      (* Swallow the genuine READ at a downed server, then forge a CAS
         reply bearing its reqid (a fresh endpoint starts at 1). *)
      Cluster.Node.set_down d.Rig.node1 true;
      let completion =
        Rmem.Remote_memory.read d.Rig.rmem0 desc ~soff:0 ~count:16
          ~dst:(Rig.buffer0 d) ~doff:0 ()
      in
      Sim.Proc.wait (Sim.Time.us 300);
      Cluster.Node.set_down d.Rig.node1 false;
      Cluster.Node.transmit d.Rig.node1
        ~dst:(Cluster.Node.addr d.Rig.node0)
        (Rmem.Wire.encode
           (Rmem.Wire.Cas_reply
              { status = Rmem.Status.Ok; reqid = 1; witness = 0 }));
      match Rmem.Remote_memory.await completion with
      | Rmem.Status.Bad_segment -> ()
      | s -> Alcotest.failf "expected Bad_segment, got %s"
               (Rmem.Status.to_string s))

(* After a timed-out CAS the pending entry is gone, so a straggling
   reply must be discarded instead of double-filling the completion
   (which would crash the dispatch loop). *)
let late_reply_after_timeout_ignored () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _segment, desc = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      (match
         Rmem.Remote_memory.cas_wait
           ~policy:(Rmem.Recovery.policy ~attempts:1 ~timeout:(Sim.Time.us 500) ())
           d.Rig.rmem0 desc ~doff:0 ~old_value:0 ~new_value:1 ()
       with
      | _ -> Alcotest.fail "cas against a dead server must time out"
      | exception Rmem.Status.Timeout -> ());
      Cluster.Node.set_down d.Rig.node1 false;
      Cluster.Node.transmit d.Rig.node1
        ~dst:(Cluster.Node.addr d.Rig.node0)
        (Rmem.Wire.encode
           (Rmem.Wire.Cas_reply
              { status = Rmem.Status.Ok; reqid = 1; witness = 0 }));
      (* Survives only if the straggler was dropped. *)
      Sim.Proc.wait (Sim.Time.us 300);
      let ok =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
          ~new_value:1 ()
        = 0
      in
      check_bool "endpoint still functional" true ok)

(* ---------------- The node event stream -------------------------- *)

(* Two subscribers on one node see the same events, in subscription
   order.  A Table 2-style one-way WRITE: the write-served waiter,
   subscribed first, runs before the monitor records the store, and a
   subscriber attached after the monitor sees it recorded.  The waiter
   times the same WRITE with the monitor attached as without. *)
let subscribers_share_a_write () =
  let write ~monitored =
    let d = Rig.duo () in
    let monitor = Analysis.Monitor.create d.Rig.engine in
    let seen = ref [] in
    let note who = seen := (who, Analysis.Monitor.access_count monitor) :: !seen in
    let arrival = Sim.Ivar.create () in
    let detach =
      Experiments.Fixture.on_write_served d.Rig.rmem1 (fun count ->
          note (Printf.sprintf "waiter %d" count);
          ignore (Sim.Ivar.try_fill arrival (Sim.Engine.now d.Rig.engine) : bool))
    in
    if monitored then begin
      Analysis.Monitor.attach monitor d.Rig.node0;
      Analysis.Monitor.attach monitor d.Rig.node1;
      Cluster.Node.subscribe d.Rig.node1 (function
        | Rmem.Remote_memory.Served { count; _ } ->
            note (Printf.sprintf "after %d" count)
        | _ -> ())
    end;
    let latency =
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment d in
          let t0 = Sim.Engine.now d.Rig.engine in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 40 'x');
          Sim.Time.diff (Sim.Ivar.read arrival) t0)
    in
    detach ();
    (latency, List.rev !seen, Analysis.Monitor.access_count monitor)
  in
  let plain, plain_seen, _ = write ~monitored:false in
  let observed, seen, accesses = write ~monitored:true in
  Alcotest.(check (list (pair string int)))
    "waiter, monitor, then the late subscriber"
    [ ("waiter 40", 0); ("after 40", 1) ]
    seen;
  Alcotest.(check (list (pair string int))) "waiter alone" [ ("waiter 40", 0) ]
    plain_seen;
  check_int "the monitor recorded the store" 1 accesses;
  check_int "observing leaves the WRITE latency alone" (Sim.Time.to_ns plain)
    (Sim.Time.to_ns observed)

(* A monitor belongs to the nodes it subscribed to: once its testbed's
   run is over, a second testbed's LRPC calls and remote-memory traffic
   do not reach it, with nothing to detach in between. *)
let monitor_stays_with_its_testbed () =
  let monitor = Analysis.Scenarios.run Analysis.Scenarios.name_service in
  let lrpc = Analysis.Monitor.lrpc_calls monitor in
  let accesses = Analysis.Monitor.access_count monitor in
  let agents = Analysis.Monitor.agent_count monitor in
  check_bool "its own run's LRPC calls counted" true (lrpc > 0);
  let d = Rig.duo () in
  Rig.run d (fun () ->
      ignore (Cluster.Lrpc.call d.Rig.node0 Fun.id ());
      let _, desc = Rig.shared_segment d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4 'x');
      Rmem.Remote_memory.fence d.Rig.rmem0 desc);
  check_int "no LRPC call leaked in" lrpc (Analysis.Monitor.lrpc_calls monitor);
  check_int "no access leaked in" accesses
    (Analysis.Monitor.access_count monitor);
  check_int "no agent leaked in" agents (Analysis.Monitor.agent_count monitor)

(* History values no checked run records: a partial-word READ, an
   access of no bytes, a CAS served without its operands, a cell with
   no snapshot, and the witness printers. *)
let history_partial_words () =
  let module H = Analysis.History in
  let d = Rig.duo () in
  let h = H.create () in
  let key = { Analysis.Access.home = 1; seg = 1; gen = 1 } in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment d in
      let serve op ~off ~count =
        ignore
          (H.record_serve h ~agent:"a" ~key ~segment ~op ~off ~count ~cas:None
             ~cas_success:None ~inv:0 ~now:1
            : H.handle)
      in
      serve Rmem.Rights.Read_op ~off:2 ~count:4;
      serve Rmem.Rights.Read_op ~off:0 ~count:0;
      serve Rmem.Rights.Write_op ~off:1 ~count:2;
      serve Rmem.Rights.Cas_op ~off:0 ~count:4;
      ignore
        (H.record_serve h ~agent:"a" ~key ~segment ~op:Rmem.Rights.Cas_op ~off:8 ~count:4
           ~cas:(Some (0l, 1l)) ~cas_success:(Some true) ~inv:0 ~now:1
          : H.handle));
  check_bool "an unsnapshotted cell is unknown" true
    (H.init_value h { H.key; word = 0 } = H.Unknown);
  Alcotest.(check (list string)) "events"
    [ "a node1/seg1.g1+0 READ -> ? [0ns, pending]";
      "a node1/seg1.g1+4 READ -> ? [0ns, pending]";
      "a node1/seg1.g1+0 WRITE ? [0ns, 1ns]";
      "a node1/seg1.g1+0 CAS(0->0) fail w=0 [0ns, pending]";
      "a node1/seg1.g1+8 CAS(0->1) ok w=0 [0ns, pending]" ]
    (List.map H.event_to_string (H.events h))

(* A monitor that joins mid-run sees serves, deliveries and
   completions of operations it never saw issued, and records them
   without their flights. *)
let monitor_joins_mid_run () =
  let d = Rig.duo () in
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Notification.set_signal_handler (Rmem.Segment.notification segment)
        (Some (fun (_ : Rmem.Notification.record) -> ()));
      Analysis.Monitor.attach monitor d.Rig.node1;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true (Bytes.make 4 'x');
      ignore
        (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:8 ~old_value:0 ~new_value:1 ()
          : int);
      let dst = Rig.buffer0 d in
      Cluster.Node.spawn d.Rig.node0 (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4 ~dst ~doff:0 ());
      Sim.Proc.wait (Sim.Time.us 20);
      Analysis.Monitor.attach monitor d.Rig.node0;
      Sim.Proc.wait (Sim.Time.ms 1));
  check_bool "the serves are recorded" true
    (List.length (Analysis.Monitor.accesses monitor) >= 3)

let suite =
  [
    Alcotest.test_case "vclock orders" `Quick vclock_orders;
    Alcotest.test_case "vclock ragged lengths" `Quick vclock_ragged_lengths;
    QCheck_alcotest.to_alcotest vclock_join_is_lub;
    QCheck_alcotest.to_alcotest vclock_compare_matches_leq;
    QCheck_alcotest.to_alcotest vclock_tick_strictly_increases;
    QCheck_alcotest.to_alcotest vclock_join_is_monotone;
    Alcotest.test_case "schedule certificates round trip" `Quick
      schedule_roundtrip;
    Alcotest.test_case "notify-storm flagged" `Quick notify_storm_flagged;
    Alcotest.test_case "notify-storm spares conditional" `Quick
      notify_storm_spares_conditional;
    Alcotest.test_case "unbounded-retry flagged" `Quick
      unbounded_retry_flagged;
    Alcotest.test_case "backed-off retry clean" `Quick backoff_retry_clean;
    Alcotest.test_case "racy workload flagged" `Quick racy_flagged;
    Alcotest.test_case "lint findings in first-occurrence order" `Quick
      lint_first_occurrence_order;
    Alcotest.test_case "races in first-occurrence order" `Quick
      race_first_occurrence_order;
    Alcotest.test_case "producer/consumer clean" `Quick
      producer_consumer_clean;
    Alcotest.test_case "kv store clean" `Quick kv_store_clean;
    Alcotest.test_case "fence sensitivity" `Quick fence_sensitivity;
    Alcotest.test_case "name service lint" `Quick name_service_lint;
    Alcotest.test_case "nacked write surfaces" `Quick nacked_write_surfaces;
    Alcotest.test_case "fence raises on nack" `Quick fence_raises_on_nack;
    Alcotest.test_case "mismatched reply fails request" `Quick
      mismatched_reply_fails_request;
    Alcotest.test_case "late reply after timeout ignored" `Quick
      late_reply_after_timeout_ignored;
    Alcotest.test_case "two subscribers share one WRITE" `Quick
      subscribers_share_a_write;
    Alcotest.test_case "monitor stays with its testbed" `Quick
      monitor_stays_with_its_testbed;
    Alcotest.test_case "history of partial words" `Quick history_partial_words;
    Alcotest.test_case "a monitor that joins mid-run" `Quick monitor_joins_mid_run;
  ]
