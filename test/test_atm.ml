(* Tests for the ATM network layer. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- AAL arithmetic ---------------- *)

let aal_cells () =
  check_int "empty frame still one cell" 1 (Atm.Aal.cells_of_len 0);
  check_int "one byte" 1 (Atm.Aal.cells_of_len 1);
  check_int "exactly one payload" 1 (Atm.Aal.cells_of_len 48);
  check_int "49 bytes + trailer -> 2 cells" 2 (Atm.Aal.cells_of_len 49);
  (* 4096 + 8 trailer = 4104 -> ceil(4104/48) = 86 *)
  check_int "4K block" 86 (Atm.Aal.cells_of_len 4096);
  check_int "wire bytes" (86 * 53) (Atm.Aal.wire_bytes_of_len 4096);
  check_int "words" 3 (Atm.Aal.words_of_len 9)

let aal_monotone =
  QCheck.Test.make ~name:"cells_of_len is monotone" ~count:300
    QCheck.(pair (int_bound 20000) (int_bound 100))
    (fun (len, extra) ->
      Atm.Aal.cells_of_len len <= Atm.Aal.cells_of_len (len + extra))

(* ---------------- Codec ---------------- *)

let codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xFF) (int_bound 0xFFFF) (int_bound 0xFFFFFFFF)
        (string_of_size Gen.(int_bound 64)))
    (fun (u8, u16, u32, s) ->
      let w = Atm.Codec.writer () in
      Atm.Codec.put_u8 w u8;
      Atm.Codec.put_u16 w u16;
      Atm.Codec.put_u32 w u32;
      Atm.Codec.put_string w s;
      Atm.Codec.put_i32 w (Int32.of_int (u32 land 0xFFFF));
      let r = Atm.Codec.reader (Atm.Codec.contents w) in
      Atm.Codec.get_u8 r = u8
      && Atm.Codec.get_u16 r = u16
      && Atm.Codec.get_u32 r = u32
      && String.equal (Bytes.to_string (Atm.Codec.get_bytes r (Atm.Codec.get_u16 r))) s
      && Atm.Codec.get_u32 r = u32 land 0xFFFF
      && Bytes.length (Atm.Codec.rest r) = 0)

let codec_truncation () =
  let r = Atm.Codec.reader (Bytes.make 2 '\000') in
  Alcotest.check_raises "truncated" Atm.Codec.Truncated (fun () ->
      ignore (Atm.Codec.get_u32 r))

let codec_bounds () =
  let w = Atm.Codec.writer () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.put_u8") (fun () ->
      Atm.Codec.put_u8 w 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Codec.put_u16")
    (fun () -> Atm.Codec.put_u16 w (-1))

(* ---------------- Links ---------------- *)

let link_delivery_time () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let arrivals = ref [] in
  let link =
    Atm.Link.create engine config ~deliver:(fun frame ->
        arrivals := (Sim.Engine.now engine, Atm.Frame.length frame) :: !arrivals)
  in
  let src = Atm.Addr.of_int 0 and dst = Atm.Addr.of_int 1 in
  (* Two single-cell frames sent back to back: the second serializes
     behind the first. *)
  Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 40 'a'));
  Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 40 'b'));
  Sim.Engine.run engine;
  let cell = Sim.Time.to_ns (Atm.Config.cell_wire_time config) in
  let prop = Sim.Time.to_ns config.Atm.Config.propagation in
  (match List.rev !arrivals with
  | [ (t1, _); (t2, _) ] ->
      check_int "first after cell+prop" (cell + prop) t1;
      check_int "second serialized behind" ((2 * cell) + prop) t2
  | _ -> Alcotest.fail "expected two arrivals");
  check_int "frames" 2 (Atm.Link.frames_sent link);
  check_int "cells" 2 (Atm.Link.cells_sent link)

let link_fifo_order () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  let link =
    Atm.Link.create engine Atm.Config.default ~deliver:(fun frame ->
        seen := Bytes.get (Atm.Frame.payload frame) 0 :: !seen)
  in
  let src = Atm.Addr.of_int 0 and dst = Atm.Addr.of_int 1 in
  List.iter
    (fun c -> Atm.Link.send link (Atm.Frame.make ~src ~dst (Bytes.make 1 c)))
    [ 'x'; 'y'; 'z' ];
  Sim.Engine.run engine;
  Alcotest.(check (list char)) "in order" [ 'x'; 'y'; 'z' ] (List.rev !seen)

(* Once the link's in-flight ring has grown to the backlog, an
   un-interposed frame's send and its arrival allocate nothing: the
   arrival event is the link's one preallocated thunk. *)
let link_hop_allocates_nothing () =
  let engine = Sim.Engine.create () in
  let arrived = ref 0 in
  let link =
    Atm.Link.create engine Atm.Config.default ~deliver:(fun _ -> incr arrived)
  in
  let frame =
    Atm.Frame.make ~src:(Atm.Addr.of_int 0) ~dst:(Atm.Addr.of_int 1)
      (Bytes.make 100 'x')
  in
  let burst () =
    for _ = 1 to 32 do
      Atm.Link.send link frame
    done;
    while Sim.Engine.step engine do
      ()
    done
  in
  let words = Rig.words_per_op ~n:200 burst /. 32. in
  check_int "every frame arrived" (32 * 201) !arrived;
  Rig.within_budget "Link.send + arrival, per frame" ~words ~budget:0.04

(* A link's transmit queue is bounded in cells, not frames: at 100 cells
   two 40-cell frames fit and a third is refused, while [queue_depth]
   still counts frames.  Once the queue drains the link takes frames
   again. *)
let link_queue_bounded_in_cells () =
  let engine = Sim.Engine.create () in
  let config = { Atm.Config.default with Atm.Config.fifo_capacity_cells = 100 } in
  let arrived = ref 0 in
  let link = Atm.Link.create engine config ~deliver:(fun _ -> incr arrived) in
  (* Forty cells' payload less the 8-byte AAL5 trailer. *)
  let len = (40 * Atm.Aal.cell_payload_bytes) - 8 in
  check_int "a 40-cell frame" 40 (Atm.Aal.cells_of_len len);
  let frame =
    Atm.Frame.make ~src:(Atm.Addr.of_int 0) ~dst:(Atm.Addr.of_int 1)
      (Bytes.make len 'x')
  in
  Atm.Link.send link frame;
  Atm.Link.send link frame;
  check_int "two frames queued" 2 (Atm.Link.queue_depth link);
  Alcotest.check_raises "third frame refused" (Atm.Link.Overflow "link")
    (fun () -> Atm.Link.send link frame);
  Atm.Link.set_overflow link Atm.Link.Drop_on_overflow;
  Atm.Link.send link frame;
  check_int "refusal counted" 1 (Atm.Link.overflow_drops link);
  Sim.Engine.run engine;
  check_int "both delivered" 2 !arrived;
  Atm.Link.send link frame;
  check_int "drained queue takes frames" 1 (Atm.Link.queue_depth link)

(* The frame pricing helper passes only ints across module boundaries:
   a call allocates nothing. *)
let frame_wire_time_allocates_nothing () =
  let config = Atm.Config.default in
  let words =
    Rig.words_per_op ~n:1000 (fun () ->
        ignore (Atm.Config.frame_wire_time config 4096 : Sim.Time.t))
  in
  Rig.within_budget "Config.frame_wire_time" ~words ~budget:0.1

(* Ring frames and closure-carried frames on one link: Deliver and
   Duplicate copies go through the ring, Delay copies through their own
   events, with jitters that make some overtake and some tie. Every
   copy must arrive exactly once, in arrival-time order (ties in send
   order), and the backlog must drain to zero. *)
let link_mixed_verdicts () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let cell = Atm.Config.cell_wire_time config in
  let prop = config.Atm.Config.propagation in
  let seen = ref [] in
  let link =
    Atm.Link.create engine config ~deliver:(fun frame ->
        seen :=
          (Sim.Engine.now engine, Bytes.get_uint8 (Atm.Frame.payload frame) 0)
          :: !seen)
  in
  let verdict id =
    match id mod 4 with
    | 0 -> Atm.Link.Deliver
    | 1 -> Atm.Link.Delay (Sim.Time.scale cell (float_of_int (id mod 5)))
    | 2 -> Atm.Link.Duplicate (1 + (id mod 3))
    | _ -> Atm.Link.Delay (Sim.Time.ns 7)
  in
  Atm.Link.set_interposer link
    (Some (fun frame -> verdict (Bytes.get_uint8 (Atm.Frame.payload frame) 0)));
  (* The reference model: the wire is FIFO, one cell per frame. *)
  let next_free = ref Sim.Time.zero in
  let expected = ref [] in
  let copies = ref 0 in
  let send id =
    let jitter, n =
      match verdict id with
      | Atm.Link.Delay j -> (j, 1)
      | Atm.Link.Duplicate extra -> (Sim.Time.zero, extra + 1)
      | _ -> (Sim.Time.zero, 1)
    in
    for _ = 1 to n do
      let start = Sim.Time.max (Sim.Engine.now engine) !next_free in
      next_free := Sim.Time.add start cell;
      expected :=
        (Sim.Time.add (Sim.Time.add !next_free prop) jitter, !copies, id)
        :: !expected;
      incr copies
    done;
    Atm.Link.send link
      (Atm.Frame.make ~src:(Atm.Addr.of_int 0) ~dst:(Atm.Addr.of_int 1)
         (Bytes.make 1 (Char.chr id)))
  in
  (* Three waves, the later ones sent while earlier frames are in
     flight. *)
  for wave = 0 to 2 do
    Sim.Engine.schedule_at engine
      (Sim.Time.scale cell (float_of_int (7 * wave)))
      (fun () ->
        for i = 0 to 19 do
          send ((20 * wave) + i)
        done)
  done;
  Sim.Engine.run ~until:(Sim.Time.scale cell 15.) engine;
  Alcotest.(check bool) "frames in flight mid-run" true
    (Atm.Link.queue_depth link > 0);
  Sim.Engine.run engine;
  let by_arrival =
    List.sort
      (fun (t1, k1, _) (t2, k2, _) -> compare (t1, k1) (t2, k2))
      !expected
  in
  Alcotest.(check (list (pair int int)))
    "every copy once, in arrival-time order"
    (List.map (fun (t, _, id) -> (Sim.Time.to_ns t, id)) by_arrival)
    (List.rev_map (fun (t, id) -> (Sim.Time.to_ns t, id)) !seen);
  check_int "all copies delivered" !copies (List.length !seen);
  check_int "backlog drained" 0 (Atm.Link.queue_depth link)

(* ---------------- NIC and networks ---------------- *)

(* The next frame [nic] receives, from a process: the FIFO's reader is
   a callback that resumes the process inline when the frame arrives,
   as a node's reader resumes its dispatcher process. *)
let receive engine nic =
  let me = Sim.Proc.self () in
  let reader =
    Sim.Proc.callback engine (Sim.Engine.Text "reader") (fun () ->
        Sim.Proc.resume me)
  in
  let frame = Atm.Nic.read nic reader in
  if frame != Atm.Nic.none then frame
  else begin
    Sim.Proc.park ~resource:(Sim.Engine.Text "rx") ~daemon:true;
    Atm.Nic.read nic reader
  end

(* The oldest frame queued in [nic]'s FIFO, read outside every process. *)
let queued nic =
  let frame = Atm.Nic.read nic Sim.Proc.nobody in
  if frame == Atm.Nic.none then Alcotest.fail "no frame queued";
  frame

(* Frames sent on the fabric edge from [src] to [dst] ([None]: a
   switch), as {!Atm.Network.links} names its endpoints. *)
let frames_sent network ~src ~dst =
  match
    List.find_map
      (fun (s, d, link) -> if s = src && d = dst then Some link else None)
      (Atm.Network.links network)
  with
  | Some link -> Atm.Link.frames_sent link
  | None -> Alcotest.fail "no such link"

let mesh_delivery () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:3 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let nic2 = Atm.Network.nic_of_int network 2 in
  Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic2) (Bytes.of_string "ping");
  let received =
    Sim.Proc.run engine (fun () -> receive engine nic2)
  in
  Alcotest.(check string) "payload" "ping"
    (Bytes.to_string (Atm.Frame.payload received));
  Alcotest.(check int) "src" 0 (Atm.Addr.to_int (Atm.Frame.src received));
  check_int "tx counted" 1 (frames_sent network ~src:(Some 0) ~dst:(Some 2));
  check_int "rx drained" 0 (Atm.Nic.pending_frames nic2);
  (* An address outside the mesh has no route: the frame is dropped. *)
  Atm.Nic.transmit nic0 ~dst:(Atm.Addr.of_int 3) (Bytes.of_string "lost");
  check_int "unroutable dropped" 1 (Atm.Nic.route_drops nic0)

let star_delivery () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create ~topology:Atm.Network.Star engine ~nodes:4 in
  let nic1 = Atm.Network.nic_of_int network 1 in
  let nic3 = Atm.Network.nic_of_int network 3 in
  Atm.Nic.transmit nic1 ~dst:(Atm.Nic.addr nic3) (Bytes.of_string "star");
  let received = Sim.Proc.run engine (fun () -> receive engine nic3) in
  Alcotest.(check string) "payload" "star"
    (Bytes.to_string (Atm.Frame.payload received));
  match Atm.Network.switches network with
  | [ _ ] ->
      check_int "up to the switch" 1 (frames_sent network ~src:(Some 1) ~dst:None);
      check_int "down from it" 1 (frames_sent network ~src:None ~dst:(Some 3))
  | _ -> Alcotest.fail "star has one switch"

(* Two frames reach the switch at the same instant and a same-instant
   scheduler fires their forwarding events in reverse: each event must
   still forward its own frame, so host 0 gets host 2's frame first and
   host 1's second, both intact.  A design where the events share one
   thunk over a FIFO of frames would deliver them the other way round. *)
let switch_same_instant_reorder () =
  let engine = Sim.Engine.create () in
  let config = Atm.Config.default in
  let network = Atm.Network.create ~config ~topology:Atm.Network.Star engine ~nodes:3 in
  let nic i = Atm.Network.nic_of_int network i in
  let payload = Printf.sprintf "from host %d" in
  let cells = Atm.Aal.cells_of_len (String.length (payload 1)) in
  let switched =
    Sim.Time.add
      (Sim.Time.add
         (cells * Atm.Config.cell_wire_time config)
         config.Atm.Config.propagation)
      config.Atm.Config.switch_latency
  in
  let reordered = ref false in
  Sim.Engine.set_scheduler engine
    (Some
       (fun c ->
         if c.Sim.Engine.at = switched then begin
           reordered := true;
           List.hd (List.rev c.Sim.Engine.enabled)
         end
         else List.hd c.Sim.Engine.enabled));
  List.iter
    (fun i ->
      Atm.Nic.transmit (nic i) ~dst:(Atm.Nic.addr (nic 0))
        (Bytes.of_string (payload i)))
    [ 1; 2 ];
  Sim.Engine.run engine;
  check_bool "scheduler chose at the switch instant" true !reordered;
  let received () =
    let frame = queued (nic 0) in
    ( Atm.Addr.to_int (Atm.Frame.src frame),
      Bytes.to_string (Atm.Frame.payload frame),
      Atm.Frame.intact frame )
  in
  let first = received () in
  let second = received () in
  Alcotest.(check (list (triple int string bool)))
    "host 2's frame first, then host 1's"
    [ (2, payload 2, true); (1, payload 1, true) ]
    [ first; second ]

(* Once a star's switch has built its forwarding slots, a frame's hop
   through it allocates nothing: the words of a frame forwarded by the
   switch onto host 0's downlink, less those of the same frame sent
   straight onto that downlink. *)
let switch_hop_allocates_nothing () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create ~topology:Atm.Network.Star engine ~nodes:2 in
  let switch =
    match Atm.Network.switches network with
    | [ switch ] -> switch
    | _ -> Alcotest.fail "star has one switch"
  in
  let down =
    match
      List.find_map
        (function None, Some 0, link -> Some link | _ -> None)
        (Atm.Network.links network)
    with
    | Some link -> link
    | None -> Alcotest.fail "star has a downlink to host 0"
  in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let frame =
    Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 0)
      (Bytes.make 100 'x')
  in
  let burst send () =
    for _ = 1 to 32 do
      send frame
    done;
    while Sim.Engine.step engine do
      ()
    done;
    for _ = 1 to 32 do
      ignore (queued nic0 : Atm.Frame.t)
    done
  in
  let per_frame send = Rig.words_per_op ~n:200 (burst send) /. 32. in
  let switched = per_frame (Atm.Switch.forward switch) in
  let forwarded = Atm.Link.frames_sent down in
  let direct = per_frame (Atm.Link.send down) in
  let hop = switched -. direct in
  Printf.printf "switch hop: %.3f words through the switch, %.3f direct\n"
    switched direct;
  check_int "every frame switched" (32 * 201) forwarded;
  Rig.within_budget "switch hop, per frame" ~words:hop ~budget:0.1

let star_slower_than_mesh () =
  let time_of topology =
    let engine = Sim.Engine.create () in
    let network = Atm.Network.create ~topology engine ~nodes:2 in
    let nic0 = Atm.Network.nic_of_int network 0 in
    let nic1 = Atm.Network.nic_of_int network 1 in
    Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic1) (Bytes.make 40 'x');
    ignore (Sim.Proc.run engine (fun () -> receive engine nic1));
    Sim.Engine.now engine
  in
  Alcotest.(check bool) "switch adds latency" true
    Sim.Time.(time_of Atm.Network.Star > time_of Atm.Network.Back_to_back)

let nic_transmit_to_self_rejected () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  Alcotest.check_raises "self" (Invalid_argument "Nic.transmit: destination is self")
    (fun () -> Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic0) Bytes.empty)

let rx_overflow_raises () =
  let engine = Sim.Engine.create () in
  let config = { Atm.Config.default with Atm.Config.fifo_capacity_cells = 4 } in
  let network = Atm.Network.create ~config engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let nic1 = Atm.Network.nic_of_int network 1 in
  (* Nobody drains nic1: five single-cell frames exceed a 4-cell FIFO.
     Depending on pacing the transmit queue or the receive FIFO trips
     first; either way the loss is loud, never silent. *)
  Alcotest.(check bool) "overflow raised" true
    (try
       for _ = 1 to 5 do
         Atm.Nic.transmit nic0 ~dst:(Atm.Nic.addr nic1) (Bytes.make 40 'x')
       done;
       Sim.Engine.run engine;
       false
     with Atm.Nic.Rx_overflow _ | Atm.Link.Overflow _ -> true)

let addr_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Addr.of_int: negative address")
    (fun () -> ignore (Atm.Addr.of_int (-1)))

(* The checksum takes 16-byte blocks in four lanes, then the words
   past the last block, then a short tail word: every single-bit flip
   of every payload of 0-64 bytes (blocks, leftover words and every
   tail length) changes it. *)
let checksum_sees_every_bit_flip () =
  for len = 0 to 64 do
    let payload = Bytes.init len (fun i -> Char.chr (((i * 151) + 7) land 0xFF)) in
    let digest = Atm.Aal.checksum payload in
    for bit = 0 to (8 * len) - 1 do
      let flip () =
        let i = bit / 8 in
        Bytes.set payload i
          (Char.chr (Char.code (Bytes.get payload i) lxor (1 lsl (bit mod 8))))
      in
      flip ();
      if Atm.Aal.checksum payload = digest then
        Alcotest.failf "length %d: flipping bit %d left the checksum" len bit;
      flip ()
    done
  done

let checksum_allocates_nothing () =
  let payload = Bytes.make 4100 'c' in
  let words =
    Rig.words_per_op ~n:1000 (fun () ->
        ignore (Atm.Aal.checksum payload : int))
  in
  Rig.within_budget "Aal.checksum, 4100 bytes" ~words ~budget:0.1

(* The pool's ownership word: a frame given back twice goes on the free
   stack once, so the next two takes of its length are two different
   frames; a pinned frame is never given back at all. *)
let pool_owns_each_frame_once () =
  let pool = Atm.Frame.pool () in
  let a = Atm.Frame.take pool 64 in
  Atm.Frame.release a;
  Atm.Frame.release a;
  let b = Atm.Frame.take pool 64 and c = Atm.Frame.take pool 64 in
  Alcotest.(check bool) "the released frame is reused" true (b == a || c == a);
  Alcotest.(check bool) "and handed out once" true (b != c);
  Atm.Frame.pin b;
  Atm.Frame.release b;
  Atm.Frame.release c;
  let d = Atm.Frame.take pool 64 and e = Atm.Frame.take pool 64 in
  Alcotest.(check bool) "a pinned frame is never reused" true (d != b && e != b);
  Alcotest.(check bool) "another length is another stack" true
    (Atm.Frame.take pool 63 != d);
  Alcotest.(check int) "outstanding: d, e and the 63-byte frame" 3
    (Atm.Frame.outstanding pool)

(* A frame delivered to a reader listening on its empty FIFO is handed
   straight over: the reader's callback is scheduled, reads it and
   listens again, with nothing allocated, against a budget of 0.1
   words.  A queue node or a box per frame, a handoff closure, or a
   parked process's continuation (2 words, what a dispatcher process
   paid per frame) fails here. *)
let handoff_budget () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let frame =
    Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 0)
      (Bytes.make 40 'x')
  in
  let deliver () = Atm.Nic.deliver nic0 frame in
  let reader = ref Sim.Proc.nobody and got = ref 0 in
  let read () = Atm.Nic.read nic0 !reader in
  reader :=
    Sim.Proc.callback engine (Sim.Engine.Text "reader") (fun () ->
        if read () == frame then incr got;
        ignore (read () : Atm.Frame.t));
  ignore (read () : Atm.Frame.t);
  let words =
    Rig.words_per_op ~n:2000 (fun () ->
        Sim.Engine.schedule_at engine (Sim.Engine.now engine + 1) deliver;
        while Sim.Engine.step engine do
          ()
        done)
  in
  check_int "every frame read" 2001 !got;
  check_int "every frame handed over, none queued" 0
    (Atm.Nic.pending_frames nic0);
  Rig.within_budget "frame handoff to a listening reader" ~words ~budget:0.1

(* [pending_frames] counts the frames queued in the receive FIFO: one
   handed to a parked receiver is not pending, and frames arriving while
   the receiver is busy queue behind it, in order. *)
let pending_frames_counts_the_queue () =
  let engine = Sim.Engine.create () in
  let network = Atm.Network.create engine ~nodes:2 in
  let nic0 = Atm.Network.nic_of_int network 0 in
  let frame i =
    Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 0)
      (Bytes.make 8 (Char.chr (Char.code 'a' + i)))
  in
  let got = ref [] and pending = ref [] in
  let note () = pending := Atm.Nic.pending_frames nic0 :: !pending in
  Sim.Proc.spawn ~name:"dispatcher" engine (fun () ->
      for _ = 0 to 3 do
        let f = receive engine nic0 in
        got := Bytes.get (Atm.Frame.payload f) 0 :: !got;
        (* busy with the frame *)
        Sim.Proc.wait (Sim.Time.us 10)
      done);
  Sim.Engine.schedule_at engine (Sim.Time.us 1) (fun () ->
      Atm.Nic.deliver nic0 (frame 0);
      note ());
  Sim.Engine.schedule_at engine (Sim.Time.us 2) (fun () ->
      for i = 1 to 3 do
        Atm.Nic.deliver nic0 (frame i)
      done;
      note ());
  Sim.Engine.run engine;
  note ();
  Alcotest.(check (list int))
    "handed over: 0; three behind a busy receiver: 3; drained: 0" [ 0; 3; 0 ]
    (List.rev !pending);
  Alcotest.(check (list char)) "received in order" [ 'a'; 'b'; 'c'; 'd' ]
    (List.rev !got)

let suite =
  [
    Alcotest.test_case "aal cell arithmetic" `Quick aal_cells;
    Alcotest.test_case "codec truncation" `Quick codec_truncation;
    Alcotest.test_case "codec bounds" `Quick codec_bounds;
    Alcotest.test_case "link delivery timing" `Quick link_delivery_time;
    Alcotest.test_case "link FIFO order" `Quick link_fifo_order;
    Alcotest.test_case "link hop allocates nothing" `Quick
      link_hop_allocates_nothing;
    Alcotest.test_case "link queue bounded in cells" `Quick
      link_queue_bounded_in_cells;
    Alcotest.test_case "frame wire time allocates nothing" `Quick
      frame_wire_time_allocates_nothing;
    Alcotest.test_case "link order under mixed verdicts" `Quick
      link_mixed_verdicts;
    Alcotest.test_case "mesh delivery" `Quick mesh_delivery;
    Alcotest.test_case "star delivery via switch" `Quick star_delivery;
    Alcotest.test_case "switch adds latency" `Quick star_slower_than_mesh;
    Alcotest.test_case "same-instant switch reorder"
      `Quick switch_same_instant_reorder;
    Alcotest.test_case "switch hop allocates nothing" `Quick
      switch_hop_allocates_nothing;
    Alcotest.test_case "nic rejects self transmit" `Quick nic_transmit_to_self_rejected;
    Alcotest.test_case "rx FIFO overflow is fatal" `Quick rx_overflow_raises;
    Alcotest.test_case "addr validation" `Quick addr_validation;
    QCheck_alcotest.to_alcotest aal_monotone;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    Alcotest.test_case "AAL checksum sees every bit flip" `Quick
      checksum_sees_every_bit_flip;
    Alcotest.test_case "AAL checksum allocates nothing" `Quick
      checksum_allocates_nothing;
    Alcotest.test_case "frame pool owns each frame once" `Quick
      pool_owns_each_frame_once;
    Alcotest.test_case "frame handoff to a parked dispatcher allocation budget"
      `Quick handoff_budget;
    Alcotest.test_case "pending frames count the queue, not the handoff" `Quick
      pending_frames_counts_the_queue;
  ]
