(* The pipelined issue engine: the differential suite (batched ==
   unbatched), the burst codec properties, ordering/fence semantics,
   and the lint interaction with policied retries.

   The differential trick: the same call sequence runs twice, once as
   direct synchronous Remote_memory calls (the reference) and once
   through a Pipeline (batching, windowing, coalescing).  Final segment
   contents must be identical; notification counts must respect the
   coalescing policy; the race detector and lint must return the same
   verdicts. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ms = Sim.Time.ms

(* ---------------- The scripted differential workload -------------- *)

(* A mixed meta-instruction script: adjacent writes (merge), an
   overlapping rewrite (last-writer-wins), a distant extent, a notify
   write, a windowed read-back, a CAS, a fence.  Returns the final
   destination segment image, what the read observed, the CAS witness,
   the notification count, and the race/lint verdicts.  Without
   [pipelined], each step is the synchronous call the engine stands in
   for: writes go out eagerly, the read blocks, there is no window to
   drain. *)
let scripted ~plan ~pipelined () =
  let d = Rig.duo () in
  (match plan with
  | None -> ()
  | Some plan ->
      let (_ : Faults.Plane.t) =
        Faults.Plane.create ~plan ~seed:11 d.Rig.testbed
      in
      ());
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach monitor d.Rig.node0;
  Analysis.Monitor.attach monitor d.Rig.node1;
  let image = ref Bytes.empty in
  let observed = ref Bytes.empty in
  let cas_witness = ref 0 in
  let notified = ref 0 in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let rmem = d.Rig.rmem0 in
      let p =
        if pipelined then
          Some
            (Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ())
               rmem)
        else None
      in
      let buf = Rig.buffer0 d in
      let write ?notify ~off data =
        match p with
        | Some p -> Rmem.Pipeline.write p desc ~off ?notify data
        | None -> Rmem.Remote_memory.write rmem desc ~off ?notify data
      in
      write ~off:8 (Bytes.make 24 'a');
      write ~off:96 (Bytes.make 32 'b');
      write ~off:32 (Bytes.make 64 'c');
      write ~off:1000 (Bytes.make 40 'd');
      write ~off:0 ~notify:true (Bytes.make 8 'e');
      let witness =
        match p with
        | Some p ->
            Rmem.Pipeline.flush p desc;
            Rmem.Remote_memory.cas_wait rmem desc ~doff:2048 ~old_value:0
              ~new_value:7 ()
        | None ->
            Rmem.Remote_memory.cas_wait rmem desc ~doff:2048 ~old_value:0
              ~new_value:7 ()
      in
      let ok = witness = 0 in
      check_bool "cas applied" true ok;
      cas_witness := witness;
      (match p with
      | Some p ->
          Rmem.Pipeline.read_submit p desc ~soff:0 ~count:128 ~dst:buf ~doff:0
            ();
          Rmem.Pipeline.drain p
      | None ->
          Rmem.Remote_memory.read_wait rmem desc ~soff:0 ~count:128 ~dst:buf
            ~doff:0 ());
      observed := Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:128;
      (match p with
      | Some p -> Rmem.Pipeline.fence p desc
      | None -> Rmem.Remote_memory.fence rmem desc);
      image := Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:4096;
      notified := Rmem.Notification.posted (Rmem.Segment.notification segment));
  let races = Analysis.Race.find monitor in
  let findings = Analysis.Lint.check monitor in
  (!image, !observed, !cas_witness, !notified, races, findings)

let digest b = Digest.to_hex (Digest.bytes b)

(* The reference image the script must produce, whatever the mode. *)
let expected_image () =
  let b = Bytes.make 4096 '\000' in
  Bytes.blit (Bytes.make 24 'a') 0 b 8 24;
  Bytes.blit (Bytes.make 32 'b') 0 b 96 32;
  Bytes.blit (Bytes.make 64 'c') 0 b 32 64;
  Bytes.blit (Bytes.make 40 'd') 0 b 1000 40;
  Bytes.blit (Bytes.make 8 'e') 0 b 0 8;
  Bytes.set_int32_le b 2048 7l;
  b

let differential ?(compare_observed = true) ~plan () =
  let image_u, observed_u, witness_u, notified_u, races_u, findings_u =
    scripted ~plan ~pipelined:false ()
  in
  let image_p, observed_p, witness_p, notified_p, races_p, findings_p =
    scripted ~plan ~pipelined:true ()
  in
  check_string "final segment contents identical" (digest image_u)
    (digest image_p);
  check_string "both match the reference image"
    (digest (expected_image ()))
    (digest image_u);
  if compare_observed then
    check_string "read-back observed program order in both modes"
      (digest observed_u) (digest observed_p);
  check_bool "cas witness identical" true (witness_u = witness_p);
  (* One notify request, one coalescing flush: both modes post exactly
     once.  Coalescing may only ever reduce the count. *)
  check_int "unbatched posts the notify" 1 notified_u;
  check_bool "coalescing posts at least once, never more" true
    (notified_p >= 1 && notified_p <= notified_u);
  check_int "no races either mode" 0
    (List.length races_u + List.length races_p);
  check_int "identical lint verdicts" (List.length findings_u)
    (List.length findings_p);
  check_int "clean lint report" 0 (List.length findings_u)

let differential_fault_free () = differential ~plan:None ()

(* Same script under an active fault plane (delay jitter on half the
   frames: reordering pressure on the windows without loss, so no
   recovery policy is needed and the final-image check stays exact).
   The mid-script read-back is NOT compared across modes here — jitter
   legitimately reorders frames differently for each mode's wire
   schedule, so only the fenced final state is mode-invariant. *)
let differential_under_jitter () =
  differential ~compare_observed:false
    ~plan:(Some (Faults.Plan.make ~link:(Faults.Plan.link_faults ~jitter:0.5 ()) ()))
    ()

(* ---------------- Ordering and the window -------------------------- *)

(* Staged writes are invisible until their flush; an overlapping read
   forces the flush (program order); a fence proves deposit. *)
let visibility_and_fence () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
      in
      let buf = Rig.buffer0 d in
      Rmem.Pipeline.write p desc ~off:0 (Bytes.make 64 'x');
      (* Staged only: nothing on the wire, the destination still sees
         zeros — the in-flight window the race detector models (the
         write's visibility witness is its flush). *)
      Sim.Proc.wait (ms 1);
      check_string "staged write not yet visible"
        (String.make 64 '\000')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:64));
      (* The overlapping read flushes first and observes program order. *)
      Rmem.Pipeline.read_submit p desc ~soff:0 ~count:64 ~dst:buf ~doff:0 ();
      Rmem.Pipeline.drain p;
      check_string "read observes the staged write"
        (String.make 64 'x')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:64));
      (* Fence: staged bytes are deposited when it returns. *)
      Rmem.Pipeline.write p desc ~off:128 (Bytes.make 32 'y');
      Rmem.Pipeline.fence p desc;
      check_string "fence proves deposit"
        (String.make 32 'y')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:128 ~len:32)))

(* The read window: full window stalls the submitter; everything
   retires at drain; adjacent staged writes merge into one burst. *)
let window_and_merge () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let p =
        Rmem.Pipeline.create
          ~config:(Rmem.Pipeline.pipelined_config ~window:2 ())
          d.Rig.rmem0
      in
      let buf = Rig.buffer0 d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4096 'r');
      for i = 0 to 5 do
        Rmem.Pipeline.read_submit p desc ~soff:(i * 512) ~count:512 ~dst:buf
          ~doff:(i * 512) ()
      done;
      Rmem.Pipeline.drain p;
      check_string "windowed reads all landed"
        (String.make 3072 'r')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:3072));
      let stats = Rmem.Pipeline.stats p in
      check_bool "a window of 2 stalled on 6 submits" true
        (stats.Rmem.Pipeline.window_stalls > 0);
      (* Adjacent extents merge: three touching writes, one flush, one
         burst, two merges. *)
      Rmem.Pipeline.write p desc ~off:8192 (Bytes.make 100 'm');
      Rmem.Pipeline.write p desc ~off:8292 (Bytes.make 100 'm');
      Rmem.Pipeline.write p desc ~off:8392 (Bytes.make 100 'm');
      Rmem.Pipeline.flush p desc;
      let stats = Rmem.Pipeline.stats p in
      check_bool "adjacent writes merged" true
        (stats.Rmem.Pipeline.merged_extents >= 2);
      Rmem.Pipeline.fence p desc;
      check_string "merged burst deposited"
        (String.make 300 'm')
        (Bytes.to_string
           (Cluster.Address_space.read d.Rig.space1 ~addr:8192 ~len:300)))

(* ---------------- Burst codec properties --------------------------- *)

let burst_gen =
  QCheck.make ~print:(fun b -> Printf.sprintf "burst of %d items" (List.length b.Rmem.Wire.items))
    QCheck.Gen.(
      let item =
        map2
          (fun off data ->
            { Rmem.Wire.off; data = Rmem.Wire.view (Bytes.of_string data) })
          (int_bound 100_000)
          (string_size ~gen:char (1 -- 300))
      in
      map4
        (fun seg gen_ notify items ->
          {
            Rmem.Wire.seg;
            gen = Rmem.Generation.of_int gen_;
            notify;
            swab = false;
            items;
          })
        (int_bound 63) (int_bound 65535) bool
        (list_size (1 -- 12) item))

let viewed (v : Rmem.Wire.view) = Bytes.sub v.buf v.pos v.len

let burst_roundtrip =
  QCheck.Test.make ~name:"burst codec roundtrip is byte-exact" ~count:300
    burst_gen (fun b ->
      match Rmem.Wire.decode (Rmem.Wire.encode (Rmem.Wire.Write_burst b)) with
      | Rmem.Wire.Write_burst b' ->
          b'.Rmem.Wire.seg = b.Rmem.Wire.seg
          && Rmem.Generation.to_int b'.Rmem.Wire.gen
             = Rmem.Generation.to_int b.Rmem.Wire.gen
          && b'.Rmem.Wire.notify = b.Rmem.Wire.notify
          && List.length b'.Rmem.Wire.items = List.length b.Rmem.Wire.items
          && List.for_all2
               (fun (i : Rmem.Wire.burst_item) (j : Rmem.Wire.burst_item) ->
                 i.off = j.off && Bytes.equal (viewed i.data) (viewed j.data))
               b'.Rmem.Wire.items b.Rmem.Wire.items
      | _ -> false)

(* Flip bit [bit] of the frame's payload in place, ask the receiving
   side's check, and flip it back. *)
let detects_flip frame bit =
  let p = Atm.Frame.payload frame in
  let flip () =
    Bytes.set p (bit / 8)
      (Char.chr (Char.code (Bytes.get p (bit / 8)) lxor (1 lsl (bit mod 8))))
  in
  flip ();
  let caught = not (Atm.Frame.intact frame) in
  flip ();
  caught

let frame_of payload =
  Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 2) payload

(* The checksum consumes 32-bit words, then a tail of up to three bytes:
   every single-bit flip must show, in a burst frame (one random bit per
   case) and, exhaustively, in a short frame of 0-7 bytes, which is all
   tail or one word plus a tail. *)
let burst_corruption_detected =
  QCheck.Test.make
    ~name:"AAL checksum catches every corrupted burst byte" ~count:300
    QCheck.(
      triple burst_gen (int_bound 1_000_000)
        (string_of_size Gen.(0 -- 7)))
    (fun (b, byte, short) ->
      let frame = frame_of (Rmem.Wire.encode (Rmem.Wire.Write_burst b)) in
      let short = frame_of (Bytes.of_string short) in
      let every_bit frame =
        List.for_all (detects_flip frame)
          (List.init (8 * Atm.Frame.length frame) Fun.id)
      in
      Atm.Frame.intact frame
      && (not (Atm.Frame.intact (Atm.Frame.corrupted ~byte frame)))
      && detects_flip frame (byte mod (8 * Atm.Frame.length frame))
      && Atm.Frame.intact frame
      && Atm.Frame.intact short
      && (not (Atm.Frame.intact (Atm.Frame.corrupted ~byte short)))
      && every_bit short)

let burst_frame_arithmetic =
  QCheck.Test.make ~name:"burst frame size arithmetic" ~count:300 burst_gen
    (fun b ->
      let items = b.Rmem.Wire.items in
      let encoded = Rmem.Wire.encode (Rmem.Wire.Write_burst b) in
      Bytes.length encoded = Rmem.Wire.burst_frame_bytes items
      && Rmem.Wire.burst_frame_bytes items
         = Rmem.Wire.burst_header_bytes
           + List.fold_left
               (fun acc (i : Rmem.Wire.burst_item) ->
                 acc + Rmem.Wire.burst_item_header_bytes + i.data.len)
               0 items)

(* ---------------- Lint vs policied retries ------------------------- *)

(* A tight unpolicied CAS spin is the anti-idiom lint flags; the same
   failures under a recovery policy are governed (bounded attempts,
   backoff) and must NOT be double-counted as an unbounded chain. *)
let policied_cas_not_flagged () =
  let spin ~policied =
    let d = Rig.duo () in
    let monitor = Analysis.Monitor.create d.Rig.engine in
    Analysis.Monitor.attach monitor d.Rig.node0;
    Analysis.Monitor.attach monitor d.Rig.node1;
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let policy =
          Rmem.Recovery.policy ~attempts:2 ~timeout:(ms 2)
            ~backoff:(Sim.Time.us 10) ()
        in
        for _ = 1 to Analysis.Lint.poll_threshold + 2 do
          (* The word is 0, so old_value 9 always fails. *)
          if policied then
            ignore
              (Rmem.Remote_memory.cas_wait d.Rig.rmem0 ~policy desc ~doff:4096
                 ~old_value:9 ~new_value:1 ()
                : int)
          else
            ignore
              (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:4096
                 ~old_value:9 ~new_value:1 ()
                : int)
        done);
    List.filter
      (fun f -> String.equal f.Analysis.Lint.rule "unbounded-retry")
      (Analysis.Lint.check monitor)
  in
  check_bool "bare spin is flagged" true (spin ~policied:false <> []);
  check_int "policied retries are not an unbounded chain" 0
    (List.length (spin ~policied:true))

let suite =
  [
    Alcotest.test_case "differential: batched == unbatched (fault-free)"
      `Quick differential_fault_free;
    Alcotest.test_case "differential: batched == unbatched (under jitter)"
      `Quick differential_under_jitter;
    Alcotest.test_case "visibility, program order, fence" `Quick
      visibility_and_fence;
    Alcotest.test_case "window stalls and extent merging" `Quick
      window_and_merge;
    QCheck_alcotest.to_alcotest burst_roundtrip;
    QCheck_alcotest.to_alcotest burst_corruption_detected;
    QCheck_alcotest.to_alcotest burst_frame_arithmetic;
    Alcotest.test_case "policied CAS retries are not an unbounded chain"
      `Quick policied_cas_not_flagged;
  ]
