(* Tests for the remote memory model — the paper's core contribution. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Wire codec ---------------- *)

(* Data of every size class that matters to the data path: empty, a
   few cells, and several pages.  Each view sits inside a larger buffer
   so encoding must honour its offset. *)
let gen_view =
  QCheck.Gen.(
    map3
      (fun pre data post ->
        {
          Rmem.Wire.buf = Bytes.of_string (pre ^ data ^ post);
          pos = String.length pre;
          len = String.length data;
        })
      (string_size (0 -- 7))
      (frequency
         [ (1, return ""); (6, string_size (1 -- 300)); (1, string_size (4000 -- 9000)) ])
      (string_size (0 -- 7)))

let gen_message =
  QCheck.Gen.(
    let gen16 = map Rmem.Generation.of_int (1 -- 0xFFFF) in
    let status = oneofl Rmem.Status.[ Ok; Protection; Bounds; Stale_generation ] in
    oneof
      [
        map
          (fun (seg, gen, off, notify, data) ->
            Rmem.Wire.Write
              { seg; gen; off; notify; swab = off mod 2 = 0; data })
          (tup5 (0 -- 255) gen16 (0 -- 0xFFFFFF) bool gen_view);
        map
          (fun (seg, gen, soff, count, reqid) ->
            Rmem.Wire.Read
              {
                seg;
                gen;
                soff;
                count;
                reqid;
                notify = count mod 2 = 0;
                swab = count mod 3 = 0;
              })
          (tup5 (0 -- 255) gen16 (0 -- 0xFFFFFF) (0 -- 0xFFFFF) (1 -- 0xFFFF));
        map
          (fun (status, reqid, chunk_off, data) ->
            Rmem.Wire.Read_reply
              { status; reqid; chunk_off; swab = chunk_off mod 2 = 0; data })
          (tup4 status (1 -- 0xFFFF) (0 -- 0xFFFFFF) gen_view);
        map
          (fun (seg, gen, doff, reqid) ->
            Rmem.Wire.Cas
              {
                seg;
                gen;
                doff;
                old_value = 5;
                new_value = -6;
                reqid;
                notify = false;
              })
          (tup4 (0 -- 255) gen16 (0 -- 0xFFFFFF) (1 -- 0xFFFF));
        map
          (fun (status, reqid, witness) ->
            Rmem.Wire.Cas_reply { status; reqid; witness })
          (tup3 status (1 -- 0xFFFF) (0 -- 1000));
        map
          (fun (status, seg, gen, off, count) ->
            Rmem.Wire.Write_nack { status; seg; gen; off; count })
          (tup5 status (0 -- 255) gen16 (0 -- 0xFFFFFF) (0 -- 0xFFFFF));
        map
          (fun (seg, gen, notify, items) ->
            Rmem.Wire.Write_burst
              {
                seg;
                gen;
                notify;
                swab = seg mod 2 = 0;
                items = List.map (fun (off, data) -> { Rmem.Wire.off; data }) items;
              })
          (tup4 (0 -- 255) gen16 bool
             (list_size (1 -- 4) (pair (0 -- 0xFFFFFF) gen_view)));
      ])

let print_message m =
  match m with
  | Rmem.Wire.Write _ -> "write"
  | Read _ -> "read"
  | Read_reply _ -> "read reply"
  | Cas _ -> "cas"
  | Cas_reply _ -> "cas reply"
  | Write_nack _ -> "write nack"
  | Write_burst _ -> "write burst"

let arb_message = QCheck.make ~print:print_message gen_message

let viewed (v : Rmem.Wire.view) = Bytes.sub v.buf v.pos v.len

let message_views = function
  | Rmem.Wire.Write { data; _ } | Read_reply { data; _ } -> [ data ]
  | Write_burst { items; _ } -> List.map (fun (i : Rmem.Wire.burst_item) -> i.data) items
  | Read _ | Cas _ | Cas_reply _ | Write_nack _ -> []

(* The message with every view copied out, so structural equality
   compares the data, not the buffers around it. *)
let flat m =
  let f v = Rmem.Wire.view (viewed v) in
  match m with
  | Rmem.Wire.Write w -> Rmem.Wire.Write { w with data = f w.data }
  | Read_reply r -> Read_reply { r with data = f r.data }
  | Write_burst b ->
      Write_burst
        {
          b with
          items =
            List.map (fun (i : Rmem.Wire.burst_item) -> { i with data = f i.data }) b.items;
        }
  | m -> m

(* Through a frame, as the NIC delivers it: the decoded views read the
   frame's payload in place, and depositing them at an address that
   straddles a page boundary stores exactly the bytes that were sent. *)
let wire_roundtrip =
  QCheck.Test.make ~name:"wire encode/decode roundtrip" ~count:300 arb_message
    (fun message ->
      let frame =
        Atm.Frame.make ~src:(Atm.Addr.of_int 1) ~dst:(Atm.Addr.of_int 2)
          (Rmem.Wire.encode message)
      in
      let decoded = Rmem.Wire.decode (Atm.Frame.payload frame) in
      let deposits_agree (got : Rmem.Wire.view) sent =
        let space = Cluster.Address_space.create ~asid:1 () in
        let addr = 4093 in
        Cluster.Address_space.write_from space ~addr got.buf ~pos:got.pos
          ~len:got.len;
        got.buf == Atm.Frame.payload frame
        && Bytes.equal
             (Cluster.Address_space.read space ~addr ~len:got.len)
             (viewed sent)
      in
      Atm.Frame.intact frame
      && flat decoded = flat message
      && List.for_all2 deposits_agree (message_views decoded) (message_views message))

(* The encoded size, worked out from the field layout. *)
let expected_size = function
  | Rmem.Wire.Write { data; _ } | Read_reply { data; _ } -> 8 + data.len
  | Read _ -> 14
  | Cas _ -> 18
  | Cas_reply _ -> 8
  | Write_nack _ -> 13
  | Write_burst { items; _ } ->
      List.fold_left (fun acc (i : Rmem.Wire.burst_item) -> acc + 8 + i.data.len) 6 items

let wire_exact_size =
  QCheck.Test.make ~name:"wire encode allocates the exact frame size" ~count:300
    arb_message (fun message ->
      Bytes.length (Rmem.Wire.encode message) = expected_size message)

(* The in-place frame builders take their frames from one pool, and the
   tests give each frame back once checked: a recycled buffer still
   holds the last frame's bytes, so a field a builder leaves unset shows
   as a mismatch. *)
let test_pool = Atm.Frame.pool ()

let pooled_bytes f =
  let b = Bytes.copy (Atm.Frame.payload f) in
  Atm.Frame.release f;
  b

(* The server's READ reply frame, once filled, is the encoder's. *)
let wire_read_reply_frame =
  QCheck.Test.make ~name:"wire read reply frame matches encode" ~count:100
    QCheck.(pair (int_range 1 0xFFFF) (string_of_size Gen.(0 -- 400)))
    (fun (reqid, data) ->
      let len = String.length data in
      let f =
        Rmem.Wire.read_reply_frame test_pool ~reqid ~chunk_off:40 ~swab:true ~len
      in
      Bytes.blit_string data 0 (Atm.Frame.payload f) Rmem.Wire.header_bytes len;
      Bytes.equal (pooled_bytes f)
        (Rmem.Wire.encode
           (Rmem.Wire.Read_reply
              {
                status = Rmem.Status.Ok;
                reqid;
                chunk_off = 40;
                swab = true;
                data = Rmem.Wire.view (Bytes.of_string data);
              })))

(* The receive side has one set of field readers: [Wire.dispatch] hands
   them in place to the data path's handlers, and [Wire.decode] is
   [dispatch] with handlers that build a message.  Handlers written
   here, independently, must receive exactly the fields [decode]
   returns, for every kind, in both tag ranges, with the notify bit set
   and clear; on a truncated frame or a bad tag both paths raise the
   same exception, and no handler runs first. *)
let recording ran =
  let data buf ~pos ~len = { Rmem.Wire.buf; pos; len } in
  {
    Rmem.Wire.write =
      (fun () () ~seg ~gen ~off ~notify ~swab buf ~pos ~len ->
        ran := true;
        Rmem.Wire.Write { seg; gen; off; notify; swab; data = data buf ~pos ~len });
    read =
      (fun () () ~seg ~gen ~soff ~count ~reqid ~notify ~swab ->
        ran := true;
        Rmem.Wire.Read { seg; gen; soff; count; reqid; notify; swab });
    read_reply =
      (fun () () ~status ~reqid ~chunk_off ~swab buf ~pos ~len ->
        ran := true;
        Rmem.Wire.Read_reply
          { status; reqid; chunk_off; swab; data = data buf ~pos ~len });
    cas =
      (fun () () ~seg ~gen ~doff ~old_value ~new_value ~reqid ~notify ->
        ran := true;
        Rmem.Wire.Cas { seg; gen; doff; old_value; new_value; reqid; notify });
    cas_reply =
      (fun () () ~status ~reqid ~witness ->
        ran := true;
        Rmem.Wire.Cas_reply { status; reqid; witness });
    write_nack =
      (fun () () ~status ~seg ~gen ~off ~count ->
        ran := true;
        Rmem.Wire.Write_nack { status; seg; gen; off; count });
    write_burst =
      (fun () () ~seg ~gen ~notify ~swab items ->
        ran := true;
        Rmem.Wire.Write_burst { seg; gen; notify; swab; items });
  }

let outcome f = match f () with m -> Ok (flat m) | exception exn -> Error exn

let wire_dispatch_agrees =
  QCheck.Test.make ~name:"wire dispatch agrees with decode" ~count:500
    QCheck.(
      quad arb_message bool bool (make Gen.(pair (0 -- 0x1FF) (0 -- 255))))
    (fun (message, swab_range, notify, (cut, bad_range)) ->
      let frame = Rmem.Wire.encode message in
      let op = (Bytes.get_uint8 frame 0 lsr 1) land 0x7 in
      let tag range = range lor (op lsl 1) lor if notify then 1 else 0 in
      Bytes.set_uint8 frame 0 (tag (if swab_range then 0x30 else 0x10));
      let agree ~expect payload =
        let ran = ref false in
        let via_dispatch =
          outcome (fun () -> Rmem.Wire.dispatch (recording ran) () () payload)
        in
        let via_decode = outcome (fun () -> Rmem.Wire.decode payload) in
        via_dispatch = via_decode
        && expect via_dispatch
        && match via_dispatch with Ok _ -> !ran | Error _ -> not !ran
      in
      let decoded = function Ok _ -> true | Error _ -> false in
      (* A prefix either still holds every field or is reported as
         truncated, never as an out-of-bounds read. *)
      let whole_or_truncated = function
        | Ok _ | Error Atm.Codec.Truncated -> true
        | Error _ -> false
      in
      let rejected = function
        | Error (Rmem.Wire.Bad_message _) -> true
        | Ok _ | Error _ -> false
      in
      let truncated = Bytes.sub frame 0 (cut mod Bytes.length frame) in
      let bad_tag = Bytes.copy frame in
      (* Any high nibble but the two tag ranges'. *)
      let range = bad_range land 0xF0 in
      Bytes.set_uint8 bad_tag 0
        (tag (if range = 0x10 || range = 0x30 then 0x50 else range));
      agree ~expect:decoded frame
      && agree ~expect:whole_or_truncated truncated
      && agree ~expect:rejected bad_tag)

(* A burst extent as the pipeline stages it: an older write of the
   whole extent whose second half is stale, then a newer one of that
   half, which must win. *)
let staged_extent (i : Rmem.Wire.burst_item) =
  let data = Bytes.sub i.data.buf i.data.pos i.data.len in
  let half = i.data.len / 2 in
  let stale = Bytes.mapi (fun k c -> if k < half then c else Char.chr (Char.code c lxor 0x5A)) data in
  {
    Rmem.Wire.off = i.off;
    len = i.data.len;
    writes = [ (i.off + half, Bytes.sub data half (i.data.len - half)); (i.off, stale) ];
  }

(* The data path frames requests and replies in place; each frame is
   byte for byte what the reference encoder writes. *)
let wire_in_place_frames =
  QCheck.Test.make ~name:"wire in-place frames match encode" ~count:300
    arb_message (fun message ->
      let in_place =
        match message with
        | Rmem.Wire.Write { seg; gen; off; notify; swab; data } ->
            Some
              (Rmem.Wire.write_frame test_pool ~seg ~gen ~off ~notify ~swab
                 data.buf ~pos:data.pos ~len:data.len)
        | Read { seg; gen; soff; count; reqid; notify; swab } ->
            Some
              (Rmem.Wire.read_frame test_pool ~seg ~gen ~soff ~count ~reqid
                 ~notify ~swab)
        | Cas { seg; gen; doff; old_value; new_value; reqid; notify } ->
            Some
              (Rmem.Wire.cas_frame test_pool ~seg ~gen ~doff ~old_value
                 ~new_value ~reqid ~notify)
        | Cas_reply { status; reqid; witness } ->
            Some (Rmem.Wire.cas_reply_frame test_pool ~status ~reqid ~witness)
        | Write_burst { seg; gen; notify; swab; items } ->
            Some
              (Rmem.Wire.write_burst_frame test_pool ~seg ~gen ~notify ~swab
                 (List.map staged_extent items))
        | Read_reply _ | Write_nack _ -> None
      in
      match in_place with
      | None -> QCheck.assume_fail ()
      | Some f -> Bytes.equal (pooled_bytes f) (Rmem.Wire.encode message))

(* ---------------- Host allocation budget ---------------- *)

(* The host cost of the two data-path shapes, 4 KB each, against a
   budget 10% above what they allocate (2 and 96 words at n = 200, 98
   with a wait per charge of the burst WRITE, 4 and 100 with the
   fence's and READ's trap charged by the issuer, with
   completions recycled through the node's pool, frames recycled
   through the network's pool, the single-copy data path, the
   allocation-lean control path, monitor events built only when a
   monitor is attached, allocation-free frame hops, in-place dispatch,
   closure-free waits and sleeps, a receive FIFO that hands each frame
   to its listening reader, frames served and delivered at interrupt
   level with no process switch (87 and 113 words with one), and
   integer cost arithmetic that boxes no float per frame): a frame
   buffer or record allocated per frame (13 reply frames of 328
   bytes), a queue node, box or continuation per received frame, a
   reintroduced copy of the payload (4 KB is 512 words) or a per-frame
   closure fails here rather than waiting for the benchmark.  A WRITE of
   three frames parks its issuer once, through its trap and every FIFO
   copy: 2 words (8 with a wait per charge). *)
let allocation_budget () =
  let d = Rig.duo () in
  let data = Bytes.make 4096 'w' and three = Bytes.make 800 't' in
  let read_words, write_words, chunked_words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let dst = Rig.buffer0 d in
        let p =
          Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
        in
        let read =
          Rig.words_per_op ~n:200 (fun () ->
              Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4096 ~dst
                ~doff:0 ())
        in
        let write =
          Rig.words_per_op ~n:200 (fun () ->
              Rmem.Pipeline.write p desc ~off:8192 data;
              Rmem.Pipeline.fence p desc)
        in
        let chunked =
          Rig.words_per_op ~n:200 (fun () ->
              Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:16384 three)
        in
        (read, write, chunked))
  in
  Rig.within_budget "3-chunk WRITE" ~words:chunked_words ~budget:2.2;
  Rig.within_budget "4 KB READ" ~words:read_words ~budget:2.4;
  Rig.within_budget "4 KB pipelined write + fence" ~words:write_words
    ~budget:105.7

(* The fixed cost of one meta-instruction round trip: a 4-byte READ,
   one request frame and one reply, against a budget 10% above what it
   allocates (2 words, the continuation of the issuer's one park, its
   trap charged at event level; 4 with the trap charged by the issuer's
   own wait; 14 with a process switch per frame served or delivered; 45 with a fresh completion per
   issue, a request-id probe closure, a cons cell per
   pending entry and a closure and an option per serve-side pin check;
   78 with an ivar as the completion, an optioned pending record and a
   mailbox node per received frame; 96 with a fresh frame per
   message).  Any of those back, a per-sleep handler closure or wake
   thunk, a per-wait wake thunk, a decoded message record, a
   per-request codec writer or a float boxed by the cost arithmetic on
   the fixed path fails here. *)
let round_trip_budget () =
  let d = Rig.duo () in
  let words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let dst = Rig.buffer0 d in
        Rig.words_per_op ~n:200 (fun () ->
            Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4 ~dst
              ~doff:0 ()))
  in
  Rig.within_budget "4-byte READ round trip" ~words ~budget:2.4

(* A READ's reply frames cost the host nothing of their own: a 4 KB
   READ (13 reply frames of 328 bytes) allocates what a 4-byte READ (one
   reply frame) does, within a budget of 0.5 words, since each reply
   frame is served and delivered at interrupt level, with no process
   switch at either end.  A continuation per frame (2 words a frame at
   each end, 48 more in all, what a dispatcher process paid) or any
   other per-frame allocation fails here. *)
let read_reply_frames_budget () =
  let d = Rig.duo () in
  let words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let dst = Rig.buffer0 d in
        let read count =
          Rig.words_per_op ~n:200 (fun () ->
              Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count ~dst
                ~doff:0 ())
        in
        let small = read 4 in
        let large = read 4096 in
        Printf.printf "4-byte READ: %.2f words; 4 KB READ: %.2f words\n" small
          large;
        large -. small)
  in
  Rig.within_budget "4 KB READ over a 4-byte READ" ~words ~budget:0.5

(* The fixed cost of one remote CAS: the request frame, the reply, the
   completion and the issuer's one park, 10% above the measured 2 words
   (4 with its trap charged by the issuer's own wait, 14 with a process
   switch per frame served or delivered, 45
   with a fresh completion per CAS, 74 with an ivar as the completion, 93
   with a fresh frame per message, 117 with int32 words).  The CAS carries its words as ints end to end, so
   a boxed witness, a result tuple or an [Issued] argument pair built
   without a monitor fails here. *)
let cas_round_trip_budget () =
  let d = Rig.duo () in
  let words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        Rig.words_per_op ~n:200 (fun () ->
            ignore
              (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0
                 ~old_value:0 ~new_value:0 ()
                : int)))
  in
  Rig.within_budget "CAS round trip" ~words ~budget:2.4

(* A duplicated reply chunk must not count twice towards a READ's byte
   total: the first reply frame of a 4 KB READ is delivered twice, and
   the READ may complete only once every chunk, the short last one
   included, has been deposited. *)
let duplicated_reply_chunk () =
  let d = Rig.duo () in
  let link =
    List.find_map
      (fun (src, dst, link) ->
        match (src, dst) with
        | Some 1, _ | _, Some 0 -> Some link
        | _ -> None)
      (Atm.Network.links (Cluster.Testbed.network d.Rig.testbed))
    |> Option.get
  in
  let duplicated = ref false in
  Atm.Link.set_interposer link
    (Some
       (fun frame ->
         let payload = Atm.Frame.payload frame in
         let op = (Bytes.get_uint8 payload 0 lsr 1) land 0x7 in
         if op = 3 && not !duplicated then begin
           duplicated := true;
           Atm.Link.Duplicate 1
         end
         else Atm.Link.Deliver));
  let source = Bytes.init 4096 (fun i -> Char.chr (i * 7 land 0xFF)) in
  let got =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        Cluster.Address_space.write d.Rig.space1 ~addr:0 source;
        Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4096
          ~dst:(Rig.buffer0 d) ~doff:0 ();
        Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:4096)
  in
  check_bool "a reply frame was duplicated" true !duplicated;
  check_bool "every byte deposited before completion" true (Bytes.equal got source)

let wire_write_header_size () =
  let encoded =
    Rmem.Wire.encode
      (Rmem.Wire.Write
         {
           seg = 1;
           gen = Rmem.Generation.initial;
           off = 0;
           notify = false;
           swab = false;
           data = Rmem.Wire.view (Bytes.make 40 'x');
         })
  in
  (* 8-byte header + 40 data bytes = exactly one 48-byte cell payload. *)
  check_int "one cell exactly" 48 (Bytes.length encoded);
  check_int "single cell" 1 (Atm.Aal.cells_of_len (Bytes.length encoded))

let wire_data_cells () =
  check_int "zero" 1 (Rmem.Wire.data_cells 0);
  check_int "40" 1 (Rmem.Wire.data_cells 40);
  check_int "41" 2 (Rmem.Wire.data_cells 41);
  check_int "4K paper figure" 103 (Rmem.Wire.data_cells 4096)

(* ---------------- Data transfer ---------------- *)

let write_then_read_identity =
  QCheck.Test.make ~name:"remote write then remote read is identity" ~count:40
    QCheck.(pair (int_bound 30000) (string_of_size Gen.(1 -- 20000)))
    (fun (off, payload) ->
      let d = Rig.duo () in
      let data = Bytes.of_string payload in
      Rig.run d (fun () ->
          let _, desc = Rig.shared_segment ~len:65536 d in
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off data;
          Sim.Proc.wait (Sim.Time.ms 50);
          let buf = Rig.buffer0 d in
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:off
            ~count:(Bytes.length data) ~dst:buf ~doff:100 ();
          Bytes.equal data
            (Cluster.Address_space.read d.Rig.space0 ~addr:100
               ~len:(Bytes.length data))))

let zero_length_write_doorbell () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true Bytes.empty;
      let record = Rmem.Notification.wait fd in
      check_int "empty doorbell" 0 record.Rmem.Notification.count)

let cas_swaps_once () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let witness =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0
          ~new_value:5 ()
      in
      let won = witness = 0 in
      check_bool "won" true won;
      Alcotest.(check int) "witness 0" 0 witness;
      let witness =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0
          ~new_value:6 ()
      in
      let won = witness = 0 in
      check_bool "lost" false won;
      Alcotest.(check int) "witness 5" 5 witness;
      Alcotest.(check int) "memory holds 5" 5
        (Cluster.Address_space.read_word d.Rig.space1 ~addr:64))

let cas_result_deposit () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let buf = Rig.buffer0 d in
      let (_ : int) =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
          ~new_value:3 ~result:(buf, 12) ()
      in
      Alcotest.(check int) "success word deposited" 1
        (Cluster.Address_space.read_word d.Rig.space0 ~addr:12);
      let (_ : int) =
        Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
          ~new_value:4 ~result:(buf, 12) ()
      in
      Alcotest.(check int) "failure word deposited" 0
        (Cluster.Address_space.read_word d.Rig.space0 ~addr:12))

(* ---------------- Protection and failure paths ---------------- *)

let local_check tag expected body =
  check_bool tag true
    (try
       body ();
       false
     with Rmem.Status.Remote_error status -> status = expected)

let rights_enforced_locally () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      local_check "write denied" Rmem.Status.Protection (fun () ->
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 4 'x'));
      local_check "cas denied" Rmem.Status.Protection (fun () ->
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0 ~old_value:0
               ~new_value:1 ())))

let rights_enforced_remotely () =
  (* Forge a descriptor claiming rights the exporter never granted: the
     receiving kernel rejects the op. *)
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      let forged =
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      (* The write is silently dropped (no reply path for writes); the
         destination's error counter ticks. *)
      Rmem.Remote_memory.write d.Rig.rmem0 forged ~off:0 (Bytes.make 4 'x');
      Sim.Proc.wait (Sim.Time.ms 1);
      Alcotest.(check (float 0.01)) "protection error recorded" 1.
        (Metrics.Account.total_of
           (Rmem.Remote_memory.errors d.Rig.rmem1)
           "protection violation");
      check_bool "memory untouched" true
        (Bytes.equal (Bytes.make 4 '\000')
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:4));
      (* A CAS has a reply path: the refusal comes back to the caller. *)
      local_check "forged CAS refused" Rmem.Status.Protection (fun () ->
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 forged ~doff:0 ~old_value:0
               ~new_value:1 ()
              : int));
      check_int "word untouched" 0 (Cluster.Address_space.read_word d.Rig.space1 ~addr:0))

let per_importer_grants () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~rights:Rmem.Rights.read_only d in
      Rmem.Segment.grant segment
        ~importer:(Cluster.Node.addr d.Rig.node0)
        Rmem.Rights.all;
      let desc =
        Rmem.Remote_memory.import d.Rig.rmem0
          ~remote:(Cluster.Node.addr d.Rig.node1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:8 (Bytes.of_string "ok");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "granted write landed" true
        (Bytes.equal (Bytes.of_string "ok")
           (Cluster.Address_space.read d.Rig.space1 ~addr:8 ~len:2)))

let bounds_checked () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:4096 d in
      local_check "off past end" Rmem.Status.Bounds (fun () ->
          Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:4095
            (Bytes.make 2 'x'));
      local_check "read past end" Rmem.Status.Bounds (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:5000
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

(* A local buffer too small for the data fails like every other local
   check: Bounds, after an Issue_rejected event the monitor records. *)
let local_buffer_bounds_rejected () =
  let d = Rig.duo () in
  let monitor = Analysis.Monitor.create d.Rig.engine in
  Analysis.Monitor.attach monitor d.Rig.node0;
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:4096 d in
      local_check "read destination too small" Rmem.Status.Bounds (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:64
            ~dst:(Rig.buffer0 ~len:32 d) ~doff:0 ());
      local_check "cas result slot out of range" Rmem.Status.Bounds (fun () ->
          ignore
            (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:0
               ~old_value:0 ~new_value:1
               ~result:(Rig.buffer0 ~len:32 d, 30)
               ()
              : int)));
  let bounds op =
    List.length
      (List.filter
         (fun r ->
           r.Analysis.Monitor.op = op && r.Analysis.Monitor.site = `Issue
           && r.Analysis.Monitor.status = Rmem.Status.Bounds)
         (Analysis.Monitor.rejections monitor))
  in
  check_int "one READ Bounds rejection" 1 (bounds Rmem.Rights.Read_op);
  check_int "one CAS Bounds rejection" 1 (bounds Rmem.Rights.Cas_op)

(* Under a policy each attempt's timeout is the policy's own, so a
   caller's [timeout] beside it is refused rather than silently dropped,
   before anything is issued. *)
let timeout_with_policy_refused () =
  let d = Rig.duo () in
  let policy = Rmem.Recovery.policy ~attempts:2 ~timeout:(Sim.Time.ms 2) () in
  let timeout = Sim.Time.ms 1 in
  let refused what body =
    check_bool (what ^ " refuses ?timeout with ?policy") true
      (try
         body ();
         false
       with Invalid_argument _ -> true)
  in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let rmem = d.Rig.rmem0 in
      refused "read_wait" (fun () ->
          Rmem.Remote_memory.read_wait ~timeout ~policy rmem desc ~soff:0
            ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ());
      List.iter
        (fun op ->
          Alcotest.(check (float 0.)) (op ^ " never issued") 0.
            (Metrics.Account.total_of (Rmem.Remote_memory.ops rmem) op))
        [ "read"; "cas"; "write burst" ])

let stale_generation_paths () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      (* A stale descriptor fails locally, before any network traffic. *)
      Rmem.Descriptor.mark_stale desc;
      local_check "local stale failure" Rmem.Status.Stale_generation (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ());
      (* Refresh it with a wrong generation: the destination rejects. *)
      Rmem.Descriptor.refresh desc
        ~generation:(Rmem.Generation.next (Rmem.Descriptor.generation desc));
      local_check "remote stale rejection" Rmem.Status.Stale_generation
        (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

let revoked_segment_rejects () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      local_check "revoked" Rmem.Status.Bad_segment (fun () ->
          Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
            ~dst:(Rig.buffer0 d) ~doff:0 ()))

let write_inhibit_drops () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.of_string "no");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "inhibited write dropped" true
        (Bytes.equal (Bytes.make 2 '\000')
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:2));
      (* Reads still work. *)
      Rmem.Segment.set_write_inhibit segment false;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.of_string "ok");
      Sim.Proc.wait (Sim.Time.ms 1);
      check_bool "after uninhibit" true
        (Bytes.equal (Bytes.of_string "ok")
           (Cluster.Address_space.read d.Rig.space1 ~addr:0 ~len:2)))

let timeout_on_crashed_node () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      check_bool "timeout raised" true
        (try
           Rmem.Remote_memory.read_wait ~timeout:(Sim.Time.ms 2) d.Rig.rmem0
             desc ~soff:0 ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ();
           false
         with Rmem.Status.Timeout -> true);
      (* Failure detection by timeout is the paper's recovery story:
         after the node comes back, the same descriptor works again. *)
      Cluster.Node.set_down d.Rig.node1 false;
      Rmem.Remote_memory.read_wait ~timeout:(Sim.Time.ms 2) d.Rig.rmem0 desc
        ~soff:0 ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ())

(* ---------------- Notification ---------------- *)

let notify_policies () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let run_policy policy ~notify =
        let segment, desc =
          Rig.shared_segment ~policy ~len:4096 d
        in
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify
          (Bytes.make 8 'x');
        Sim.Proc.wait (Sim.Time.ms 1);
        Rmem.Notification.posted (Rmem.Segment.notification segment)
      in
      check_int "never + notify bit" 0
        (run_policy Rmem.Segment.Never ~notify:true);
      check_int "always without bit" 1
        (run_policy Rmem.Segment.Always ~notify:false);
      check_int "conditional without bit" 0
        (run_policy Rmem.Segment.Conditional ~notify:false);
      check_int "conditional with bit" 1
        (run_policy Rmem.Segment.Conditional ~notify:true))

let notification_costs_and_queue () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      (* Two writes with notify, nobody reading: records queue. *)
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true
        (Bytes.make 4 'a');
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:8 ~notify:true
        (Bytes.make 4 'b');
      Sim.Proc.wait (Sim.Time.ms 2);
      check_int "two queued" 2 (Rmem.Notification.pending fd);
      let r1 = Rmem.Notification.wait fd in
      let r2 = Rmem.Notification.wait fd in
      check_int "fifo order by offset" 0 r1.Rmem.Notification.off;
      check_int "second" 8 r2.Rmem.Notification.off;
      check_int "drained" 0 (Rmem.Notification.pending fd))

let signal_handler_upcall () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let fd = Rmem.Segment.notification segment in
      let upcalls = ref 0 in
      Rmem.Notification.set_signal_handler fd (Some (fun _ -> incr upcalls));
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 ~notify:true
        (Bytes.make 4 'x');
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "upcall ran" 1 !upcalls;
      check_int "nothing queued" 0 (Rmem.Notification.pending fd))

let read_completion_notification () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let fd = Rmem.Remote_memory.completion_fd d.Rig.rmem0 in
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:16
        ~dst:(Rig.buffer0 d) ~doff:0 ~notify:true ();
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "completion posted on reader's fd" 1
        (Rmem.Notification.posted fd))

(* ---------------- Segments and generations ---------------- *)

let export_pins_pages () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let segment, _ = Rig.shared_segment ~len:10000 d in
      check_bool "pages pinned" true
        (Cluster.Address_space.is_pinned d.Rig.space1 ~addr:0 ~len:10000);
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      check_bool "unpinned after revoke" false
        (Cluster.Address_space.is_pinned d.Rig.space1 ~addr:0 ~len:10000))

let generations_increase_per_export () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let s1 =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0
          ~len:4096 ~name:"a" ()
      in
      let s2 =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:8192
          ~len:4096 ~name:"b" ()
      in
      check_int "consecutive generations"
        (Rmem.Generation.to_int (Rmem.Segment.generation s1) + 1)
        (Rmem.Generation.to_int (Rmem.Segment.generation s2)))

let generation_wraps_past_invalid () =
  let g = ref (Rmem.Generation.of_int 0xFFFF) in
  g := Rmem.Generation.next !g;
  check_int "wraps to initial, skipping 0" 1 (Rmem.Generation.to_int !g)

let well_known_id_export () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let s =
        Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1 ~base:0
          ~len:4096 ~id:77 ~name:"wk" ()
      in
      check_int "requested id" 77 (Rmem.Segment.id s);
      check_bool "collision rejected" true
        (try
           ignore
             (Rmem.Remote_memory.export d.Rig.rmem1 ~space:d.Rig.space1
                ~base:8192 ~len:4096 ~id:77 ~name:"wk2" ());
           false
         with Invalid_argument _ -> true))

(* ---------------- Accounting ---------------- *)

(* Fences and verifying writes read back into scratch space the node
   does not register, so however many run, the node's address-space
   count (read off its next asid) does not move. *)
let fences_leave_spaces_alone () =
  let d = Rig.duo () in
  let policy = Rmem.Recovery.policy ~attempts:2 ~timeout:(Sim.Time.ms 2) () in
  let next_asid () =
    Cluster.Address_space.asid (Cluster.Node.new_address_space d.Rig.node0)
  in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let before = next_asid () in
      for i = 1 to 100 do
        Rmem.Remote_memory.fence d.Rig.rmem0 desc;
        Rmem.Remote_memory.write d.Rig.rmem0 ~policy desc ~off:(8 * i)
          (Bytes.make 8 'v')
      done;
      check_int "no space registered but the probe's own" (before + 1)
        (next_asid ()))

let fence_orders_writes () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment ~len:65536 d in
      (* A pile of writes, then a fence: all must be visible after. *)
      for i = 0 to 9 do
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:(i * 4096)
          (Bytes.make 4096 (Char.chr (97 + i)))
      done;
      Rmem.Remote_memory.fence d.Rig.rmem0 desc;
      for i = 0 to 9 do
        check_bool
          (Printf.sprintf "write %d deposited before fence returned" i)
          true
          (Bytes.equal
             (Cluster.Address_space.read d.Rig.space1 ~addr:(i * 4096)
                ~len:4096)
             (Bytes.make 4096 (Char.chr (97 + i))))
      done)

let stats_track_bytes () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 1000 'x');
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:500
        ~dst:(Rig.buffer0 d) ~doff:0 ();
      Alcotest.(check (float 0.01)) "write bytes" 1000.
        (Metrics.Account.total_of (Rmem.Remote_memory.data_bytes d.Rig.rmem0) "write");
      Alcotest.(check (float 0.01)) "read bytes" 500.
        (Metrics.Account.total_of (Rmem.Remote_memory.data_bytes d.Rig.rmem0) "read");
      Alcotest.(check (float 0.01)) "served at exporter" 1000.
        (Metrics.Account.total_of
           (Rmem.Remote_memory.data_bytes d.Rig.rmem1)
           "write served"))

(* ---------------- Recycled frames ---------------- *)

let network_pool d =
  Atm.Nic.pool (Cluster.Node.nic d.Rig.node0)

let link_towards d ~dst =
  List.find_map
    (fun (_, to_, link) -> if to_ = Some dst then Some link else None)
    (Atm.Network.links (Cluster.Testbed.network d.Rig.testbed))
  |> Option.get

let patterned ~seed len =
  Bytes.init len (fun i -> Char.chr (((i * seed) + (i lsr 8)) land 0xFF))

(* A [Duplicate] verdict on a READ reply chunk delivers one frame twice.
   The interposer pinned it, so neither delivery gives it back to the
   pool: the WRITE that follows, whose frames have the chunk's length,
   cannot be handed its buffer (the chunk's payload stays as captured),
   and no two live frames share one (no frame fails its checksum). *)
let duplicated_reply_chunk_pinned () =
  let d = Rig.duo () in
  let captured = ref None in
  Atm.Link.set_interposer (link_towards d ~dst:0)
    (Some
       (fun frame ->
         let payload = Atm.Frame.payload frame in
         if (Bytes.get_uint8 payload 0 lsr 1) land 0x7 = 3 && !captured = None
         then begin
           captured := Some (frame, Bytes.copy payload);
           Atm.Link.Duplicate 1
         end
         else Atm.Link.Deliver));
  let source = patterned ~seed:7 4096 and written = patterned ~seed:13 4096 in
  let got =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        Cluster.Address_space.write d.Rig.space1 ~addr:0 source;
        Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4096
          ~dst:(Rig.buffer0 d) ~doff:0 ();
        let got = Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:4096 in
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:8192 written;
        Rmem.Remote_memory.fence d.Rig.rmem0 desc;
        got)
  in
  let frame, snapshot = Option.get !captured in
  check_bool "the READ returned the segment's bytes" true (Bytes.equal got source);
  check_bool "the duplicated chunk was never reused" true
    (Bytes.equal (Atm.Frame.payload frame) snapshot);
  check_bool "the WRITE landed" true
    (Bytes.equal
       (Cluster.Address_space.read d.Rig.space1 ~addr:8192 ~len:4096)
       written);
  check_int "no frame overwritten in flight" 0
    (Atm.Nic.crc_errors (Cluster.Node.nic d.Rig.node0)
    + Atm.Nic.crc_errors (Cluster.Node.nic d.Rig.node1))

(* READs back to back, one at a time and then a window of them in
   flight together, each of a different region: every one returns its
   own bytes although their reply frames are recycled from one READ to
   the next (the pool creates no more frames than the first READ
   needed, while the NICs send ten times as many). *)
let back_to_back_reads () =
  let d = Rig.duo () in
  let pool = network_pool d in
  let region i = patterned ~seed:((2 * i) + 3) 4096 in
  let created_after_first = ref 0 in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      for i = 0 to 9 do
        Cluster.Address_space.write d.Rig.space1 ~addr:(i * 4096) (region i)
      done;
      let dst = Rig.buffer0 d in
      for i = 0 to 9 do
        Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:(i * 4096)
          ~count:4096 ~dst ~doff:0 ();
        if i = 0 then created_after_first := Atm.Frame.created pool;
        check_bool
          (Printf.sprintf "sequential READ %d" i)
          true
          (Bytes.equal
             (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:4096)
             (region i))
      done;
      check_int "sequential READs reuse the first one's frames"
        !created_after_first (Atm.Frame.created pool);
      let p =
        Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
      in
      for i = 0 to 9 do
        Rmem.Pipeline.read_submit p desc ~soff:(i * 4096) ~count:4096 ~dst
          ~doff:(i * 4096) ()
      done;
      Rmem.Pipeline.drain p;
      for i = 0 to 9 do
        check_bool
          (Printf.sprintf "windowed READ %d" i)
          true
          (Bytes.equal
             (Cluster.Address_space.read d.Rig.space0 ~addr:(i * 4096) ~len:4096)
             (region i))
      done);
  check_bool "the NICs sent many more frames than the pool made" true
    (List.fold_left
       (fun acc (src, _, link) ->
         if src = Some 1 then acc + Atm.Link.frames_sent link else acc)
       0
       (Atm.Network.links (Cluster.Testbed.network d.Rig.testbed))
    > 10 * !created_after_first)

(* Every pooled frame of a drained fault-free run is given back: READs,
   WRITEs, CAS, a burst and nacked writes, then nothing outstanding. *)
let pool_drained () =
  let d = Rig.duo () in
  let pool = network_pool d in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let dst = Rig.buffer0 d in
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (patterned ~seed:5 5000);
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:5000 ~dst
        ~doff:0 ();
      ignore
        (Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64 ~old_value:0
           ~new_value:9 ()
          : int);
      let p =
        Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
      in
      for i = 0 to 3 do
        Rmem.Pipeline.write p desc ~off:(8192 + (i * 1000)) (patterned ~seed:i 1000)
      done;
      Rmem.Pipeline.fence p desc;
      Rmem.Segment.set_write_inhibit segment true;
      Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 100 'n');
      ignore (Rmem.Remote_memory.take_write_failure d.Rig.rmem0 desc));
  check_bool "pooled frames were used" true (Atm.Frame.created pool > 0);
  check_int "nothing outstanding" 0 (Atm.Frame.outstanding pool)

(* A whole 64 KB file written through the pipeline, 4 KB at a time as
   the bulk benchmark does, then fenced: each staged byte is copied once,
   into one pooled burst frame, against a budget 10% above what it
   allocates (938 words at n = 200; 942 with a wait per charge of each
   burst WRITE; 944 with the fence's trap charged by the issuer; 961 with a process switch per frame served or
   delivered; 1,042 with a fresh completion per fence and
   a cons cell per staged-table entry; 45,353 with a staging buffer
   re-copied per
   write and a codec-built burst). A staging buffer re-copied on every abutting write, or a
   burst framed through a growing codec writer, fails here. *)
let file_write_budget () =
  let d = Rig.duo () in
  let blocks = Array.init 16 (fun i -> patterned ~seed:(i + 1) 4096) in
  let words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment ~len:131072 d in
        let p =
          Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
        in
        Rig.words_per_op ~n:200 (fun () ->
            Array.iteri
              (fun i b -> Rmem.Pipeline.write p desc ~off:(i * 4096) b)
              blocks;
            Rmem.Pipeline.fence p desc))
  in
  Rig.within_budget "64 KB pipelined file write + fence" ~words ~budget:1031.9

(* A crash fills a completion a process is blocked on with [Timed_out]
   and unblocks it there and then; the READ leaves the pending table. *)
let crash_fills_awaited_completion () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      (* The server swallows the READ, so only the crash can end it. *)
      Cluster.Node.set_down d.Rig.node1 true;
      let c =
        Rmem.Remote_memory.read d.Rig.rmem0 desc ~soff:0 ~count:16
          ~dst:(Rig.buffer0 d) ~doff:0 ()
      in
      let crash_at = Sim.Time.add (Sim.Engine.now d.Rig.engine) (Sim.Time.us 100) in
      Sim.Engine.schedule_at d.Rig.engine crash_at (fun () ->
          Rmem.Remote_memory.crash d.Rig.rmem0);
      check_bool "empty before the crash" false (Rmem.Remote_memory.completed c);
      (match Rmem.Remote_memory.await c with
      | Rmem.Status.Timed_out -> ()
      | s -> Alcotest.failf "expected Timed_out, got %s" (Rmem.Status.to_string s));
      check_int "woken at the crash" crash_at (Sim.Engine.now d.Rig.engine);
      check_int "nothing in flight" 0 (Rmem.Remote_memory.inflight d.Rig.rmem0))

(* A READ that timed out has left the pending table, so its reply, when
   it straggles in, is dropped: the completion is not refilled, the
   bytes are not deposited, and the endpoint keeps working. *)
let late_read_reply_dropped () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      let c =
        Rmem.Remote_memory.read ~timeout:(Sim.Time.us 200) d.Rig.rmem0 desc
          ~soff:0 ~count:4 ~dst:(Rig.buffer0 d) ~doff:0 ()
      in
      (match Rmem.Remote_memory.await c with
      | Rmem.Status.Timed_out -> ()
      | s -> Alcotest.failf "expected Timed_out, got %s" (Rmem.Status.to_string s));
      Cluster.Node.set_down d.Rig.node1 false;
      (* A fresh endpoint's first request id is 1. *)
      Cluster.Node.transmit d.Rig.node1
        ~dst:(Cluster.Node.addr d.Rig.node0)
        (Rmem.Wire.encode
           (Rmem.Wire.Read_reply
              {
                status = Rmem.Status.Ok;
                reqid = 1;
                chunk_off = 0;
                swab = false;
                data = Rmem.Wire.view (Bytes.of_string "late");
              }));
      Sim.Proc.wait (Sim.Time.us 300);
      (* Awaited once, the record is back in the node's pool: a second
         await is refused, and would return a status had the late reply
         refilled it. *)
      (match Rmem.Remote_memory.await c with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "late reply refilled it: %s" (Rmem.Status.to_string s));
      check_bool "late bytes not deposited" true
        (Bytes.equal (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:4)
           (Bytes.make 4 '\000'));
      Cluster.Address_space.write d.Rig.space1 ~addr:0 (Bytes.of_string "live");
      Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
        ~dst:(Rig.buffer0 d) ~doff:0 ();
      Alcotest.(check string) "endpoint still works" "live"
        (Bytes.to_string (Cluster.Address_space.read d.Rig.space0 ~addr:0 ~len:4)))

(* A 4-byte READ through the pipeline's window: the window holds the
   completion itself and the drain walks a key-sorted window array, so a
   windowed READ costs what a blocking one does, against a budget 10%
   above what it allocates (4.0 words, 4.8 with a sleeper node per trap
   queued behind a busy CPU; 13.8 with a process switch per
   frame served or delivered, 21.5 with a drain that sorted a key list, 54 with a fresh completion per issue and a cons cell per
   window or pending entry).  A closure pair, an ivar, a tuple key, an
   optioned batch tag, a queue cell or a failure ref per windowed issue
   fails here. *)
let windowed_read_budget () =
  let d = Rig.duo () in
  let words =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let dst = Rig.buffer0 d in
        let p =
          Rmem.Pipeline.create ~config:(Rmem.Pipeline.pipelined_config ()) d.Rig.rmem0
        in
        Rig.words_per_op ~n:200 (fun () ->
            for i = 0 to 3 do
              Rmem.Pipeline.read_submit p desc ~soff:(4 * i) ~count:4 ~dst
                ~doff:(4 * i) ()
            done;
            Rmem.Pipeline.drain p)
        /. 4.)
  in
  Rig.within_budget "windowed 4-byte READ through Pipeline" ~words ~budget:4.4

(* A timed READ's record stays held by its watchdog after its awaiter
   is done with it, so the watchdog, firing at the first READ's
   deadline, finds the record it was armed for.  The first READ is
   answered at once; the second READ's reply is held past that
   deadline by the link.  Had the first record gone back to the pool at
   its await, the second READ would have reused it and its stale
   watchdog would have timed the second READ out. *)
let stale_watchdog_never_fires_into_reuse () =
  let d = Rig.duo () in
  let replies = ref 0 in
  Atm.Link.set_interposer (link_towards d ~dst:0)
    (Some
       (fun frame ->
         let payload = Atm.Frame.payload frame in
         if (Bytes.get_uint8 payload 0 lsr 1) land 0x7 = 3 then begin
           incr replies;
           if !replies = 2 then Atm.Link.Delay (Sim.Time.us 400)
           else Atm.Link.Deliver
         end
         else Atm.Link.Deliver));
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      Cluster.Address_space.write d.Rig.space1 ~addr:0 (Bytes.of_string "seen");
      let dst = Rig.buffer0 d in
      let t0 = Sim.Engine.now d.Rig.engine in
      let deadline = Sim.Time.add t0 (Sim.Time.us 200) in
      let first =
        Rmem.Remote_memory.read ~timeout:(Sim.Time.us 200) d.Rig.rmem0 desc
          ~soff:0 ~count:4 ~dst ~doff:0 ()
      in
      check_bool "first READ served" true
        (Rmem.Remote_memory.await first = Rmem.Status.Ok);
      check_bool "answered before its deadline" true
        (Sim.Engine.now d.Rig.engine < deadline);
      let second =
        Rmem.Remote_memory.read d.Rig.rmem0 desc ~soff:0 ~count:4 ~dst ~doff:4 ()
      in
      (match Rmem.Remote_memory.await second with
      | Rmem.Status.Ok -> ()
      | s -> Alcotest.failf "second READ: %s" (Rmem.Status.to_string s));
      check_bool "second reply held past the first deadline" true
        (Sim.Engine.now d.Rig.engine > deadline);
      Alcotest.(check string) "second READ deposited" "seen"
        (Bytes.to_string (Cluster.Address_space.read d.Rig.space0 ~addr:4 ~len:4));
      check_int "nothing in flight" 0 (Rmem.Remote_memory.inflight d.Rig.rmem0))

(* A completion is awaited once: awaiting it again, once it is back in
   its node's pool, raises [Invalid_argument]. *)
let released_completion_refused () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let refused c =
        match Rmem.Remote_memory.await c with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let read =
        Rmem.Remote_memory.read d.Rig.rmem0 desc ~soff:0 ~count:4
          ~dst:(Rig.buffer0 d) ~doff:0 ()
      in
      check_bool "READ served" true (Rmem.Remote_memory.await read = Rmem.Status.Ok);
      check_bool "READ awaited twice refused" true (refused read))

(* The pending table empties however operations end: by timeout (with
   their watchdogs fired and their records recycled), by a crash, and
   by replies to the records recycled after both. *)
let inflight_drains () =
  let d = Rig.duo () in
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let dst = Rig.buffer0 d in
      let issue ?timeout i =
        Rmem.Remote_memory.read ?timeout d.Rig.rmem0 desc ~soff:(4 * i) ~count:4
          ~dst ~doff:(4 * i) ()
      in
      let expect status c =
        match Rmem.Remote_memory.await c with
        | s when s = status -> ()
        | s -> Alcotest.failf "expected %s, got %s" (Rmem.Status.to_string status)
                 (Rmem.Status.to_string s)
      in
      Cluster.Node.set_down d.Rig.node1 true;
      let timed = List.init 4 (issue ~timeout:(Sim.Time.us 100)) in
      check_int "four in flight" 4 (Rmem.Remote_memory.inflight d.Rig.rmem0);
      List.iter (expect Rmem.Status.Timed_out) timed;
      check_int "none in flight after the timeouts" 0
        (Rmem.Remote_memory.inflight d.Rig.rmem0);
      let crashed = List.init 4 (fun i -> issue i) in
      check_int "four in flight again" 4 (Rmem.Remote_memory.inflight d.Rig.rmem0);
      Sim.Engine.schedule d.Rig.engine (fun () -> Rmem.Remote_memory.crash d.Rig.rmem0);
      List.iter (expect Rmem.Status.Timed_out) crashed;
      check_int "none in flight after the crash" 0
        (Rmem.Remote_memory.inflight d.Rig.rmem0);
      Cluster.Node.set_down d.Rig.node1 false;
      List.iter (expect Rmem.Status.Ok)
        (List.init 4 (issue ~timeout:(Sim.Time.ms 1)));
      check_int "none in flight after recycled READs" 0
        (Rmem.Remote_memory.inflight d.Rig.rmem0))

(* A READ with a timeout arms a watchdog: two engine events whose
   thunks its record built at its first timed issue and keeps, so a
   timed READ costs what an untimed one does plus the [Some] of its
   timeout, against a budget 10% above what it allocates (5 words; 7
   with its trap charged by the issuer's own wait; 17 with a process
   switch per frame served or delivered, 58 with a fresh
   completion and the two thunks built per issue).  Three timed READs
   issued together, then awaited, are a register's DX collect round
   (19 words; 45 with a process switch per frame, 170 with a fresh
   completion, cons cell and watchdog closures per READ). *)
let timed_read_budget () =
  let d = Rig.duo () in
  let timed, three =
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        let dst = Rig.buffer0 d in
        let timeout = Sim.Time.us 300 in
        let timed =
          Rig.words_per_op ~n:200 (fun () ->
              Rmem.Remote_memory.read_wait ~timeout d.Rig.rmem0 desc ~soff:0
                ~count:4 ~dst ~doff:0 ())
        in
        let reads = ref [||] in
        let three =
          Rig.words_per_op ~n:200 (fun () ->
              for i = 0 to 2 do
                let c =
                  Rmem.Remote_memory.read ~timeout d.Rig.rmem0 desc
                    ~soff:(4 * i) ~count:4 ~dst ~doff:(4 * i) ()
                in
                if Array.length !reads = 0 then reads := Array.make 3 c;
                !reads.(i) <- c
              done;
              Array.iter
                (fun c -> Rmem.Status.check (Rmem.Remote_memory.await c))
                !reads)
        in
        (timed, three))
  in
  Rig.within_budget "timed 4-byte READ round trip" ~words:timed ~budget:5.7;
  Rig.within_budget "three timed READs awaited" ~words:three ~budget:20.5

(* A revalidator that refuses a stale descriptor is an answer, not lost
   work: it counts "refused", while a READ that exhausts its attempts
   still counts "gave-up" (what the built-in SLO holds at zero). *)
let refused_revalidation_is_not_gave_up () =
  let d = Rig.duo () in
  let count category =
    Metrics.Account.total_of (Rmem.Remote_memory.errors d.Rig.rmem0) category
  in
  let policy = Rmem.Recovery.policy ~attempts:2 ~timeout:(Sim.Time.ms 1) () in
  let dst = Rig.buffer0 d in
  let read desc policy =
    match
      Rmem.Remote_memory.read_wait ~policy d.Rig.rmem0 desc ~soff:0 ~count:4
        ~dst ~doff:0 ()
    with
    | () -> false
    | exception (Rmem.Status.Remote_error _ | Rmem.Status.Timeout) -> true
  in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      Rmem.Remote_memory.revoke d.Rig.rmem1 segment;
      check_bool "refused READ still raises" true
        (read desc (Rmem.Recovery.with_revalidate policy (fun _ -> false)));
      check_bool "counted refused" true (count "refused" = 1.);
      check_bool "not gave-up" true (count "gave-up" = 0.);
      let _, live = Rig.shared_segment d in
      Cluster.Node.set_down d.Rig.node1 true;
      check_bool "exhausted READ raises" true (read live policy);
      check_bool "counted gave-up" true (count "gave-up" = 1.);
      check_bool "refused unchanged" true (count "refused" = 1.))

(* ---------------- Hybrid-1 kernel ---------------- *)

(* A Hybrid-1 pair on a duo: node 1 serves 64-byte request slots, node
   0 calls through a ring of [slots] reply slots of [reply_bytes] at
   0x10000 of its space, exported to node 1.  [service] answers each
   request. *)
let hybrid_pair d ~slots ~reply_bytes ~timeout service =
  let req, desc = Rig.shared_segment ~len:128 d in
  let ring =
    Rmem.Remote_memory.export d.Rig.rmem0 ~space:d.Rig.space0 ~base:0x10000
      ~len:(slots * reply_bytes) ~rights:Rmem.Rights.all ~name:"ring" ()
  in
  let hy =
    Rmem.Hybrid.server d.Rig.rmem1 ~reply_bytes ~reply_to:(fun remote ->
        Rmem.Remote_memory.import d.Rig.rmem1 ~remote
          ~segment_id:(Rmem.Segment.id ring)
          ~generation:(Rmem.Segment.generation ring)
          ~size:(slots * reply_bytes) ~rights:Rmem.Rights.all ())
  in
  Rmem.Hybrid.serve req ~slot_bytes:64 (service hy);
  let ep =
    Rmem.Hybrid.endpoint d.Rig.rmem0 ~space:d.Rig.space0 ~base:0x10000 ~slots
      ~reply_bytes ~timeout
  in
  fun request ->
    Rmem.Hybrid.call ep desc ~slot_bytes:64
      (fun request b ->
        Bytes.blit request 4 b 4 (Bytes.length request - 4);
        Bytes.length request)
      request
      (fun space ~addr ~len -> Cluster.Address_space.read space ~addr ~len)

(* Answer a ticket with [payload], encoded into a reply buffer. *)
let hybrid_answer hy ticket payload =
  let b = Rmem.Hybrid.buffer hy and len = Bytes.length payload in
  Bytes.blit payload 0 b Rmem.Hybrid.payload_pos len;
  Rmem.Hybrid.reply hy ticket b ~len

let pattern len = Bytes.init len (fun i -> Char.chr (33 + (i mod 90)))

(* A reply larger than one burst frame lands body first and flag last,
   so it is complete at the instant its call returns: two WRITEs.  A
   slot of one burst frame or less lands whole, in one WRITE. *)
let hybrid_reply_complete () =
  List.iter
    (fun (reply_bytes, writes) ->
      let d = Rig.duo () in
      let payload = pattern (reply_bytes - 8) in
      Rig.run d (fun () ->
          let call =
            hybrid_pair d ~slots:1 ~reply_bytes ~timeout:(Sim.Time.ms 10)
              (fun hy ticket _ -> hybrid_answer hy ticket payload)
          in
          let ops = Rmem.Remote_memory.ops d.Rig.rmem1 in
          let before = Metrics.Account.total_of ops "write" in
          let got = call (Bytes.make 8 '\000') in
          let what = Printf.sprintf "%d-byte slot" reply_bytes in
          check_bool (what ^ ": every payload byte present on return") true
            (Bytes.equal got payload);
          Alcotest.(check (float 0.)) (what ^ ": reply WRITEs") writes
            (Metrics.Account.total_of ops "write" -. before)))
    [ (4104, 2.); (320, 1.); (72, 1.) ]

(* Call k times out, because the server answers it from a process only
   after the deadline; call k + 1 returns its own payload while call
   k's lands, in slot k mod n.  With one slot, call k's reply lands in
   the slot that call k + 1 re-armed, and its tag keeps call k + 1
   waiting for its own. *)
let hybrid_late_reply () =
  List.iter
    (fun slots ->
      let d = Rig.duo () in
      let reply_bytes = 72 and k = 4 in
      let what = Printf.sprintf "%d slot(s): " slots in
      Rig.run d (fun () ->
          let served = ref 0 in
          let answer n = Bytes.of_string (Printf.sprintf "reply %d" n) in
          let call =
            hybrid_pair d ~slots ~reply_bytes ~timeout:(Sim.Time.ms 5)
              (fun hy ticket _ ->
                let n = !served in
                incr served;
                if n < k then hybrid_answer hy ticket (answer n)
                else
                  Cluster.Node.spawn d.Rig.node1 (fun () ->
                      Sim.Proc.wait (Sim.Time.us (if n = k then 5500 else 1500));
                      hybrid_answer hy ticket (answer n)))
          in
          for n = 0 to k - 1 do
            check_bool (what ^ "an answered call") true
              (Bytes.equal (call (Bytes.make 8 '\000')) (answer n))
          done;
          check_bool (what ^ "call k times out") true
            (match call (Bytes.make 8 '\000') with
            | _ -> false
            | exception Rmem.Status.Timeout -> true);
          check_bool (what ^ "call k + 1 returns its own reply") true
            (Bytes.equal (call (Bytes.make 8 '\000')) (answer (k + 1)));
          if slots > 1 then
            let slot = 0x10000 + (k mod slots * reply_bytes) in
            check_bool (what ^ "call k's reply in slot k mod n") true
              (Bytes.equal
                 (Cluster.Address_space.read d.Rig.space0 ~addr:(slot + 8)
                    ~len:(Bytes.length (answer k)))
                 (answer k))))
    [ 3; 1 ]

(* A frame served at interrupt level runs in no process, but while its
   handler waits for a busy CPU it is listed as the node's dispatcher
   process was: "<addr> rx-dispatcher", blocked on the CPU.  A run
   stopped there names it, and only it, in its deadlock report. *)
let dispatcher_blocked_on_cpu () =
  let d = Rig.duo () in
  let node1 = d.Rig.node1 in
  let name = Atm.Addr.to_string (Cluster.Node.addr node1) in
  match
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        Cluster.Node.spawn node1 (fun () ->
            Cluster.Cpu.use (Cluster.Node.cpu node1) ~category:"hog"
              (Sim.Time.ms 10));
        Rmem.Remote_memory.write d.Rig.rmem0 desc ~off:0 (Bytes.make 8 'x');
        Sim.Engine.schedule_at d.Rig.engine
          (Sim.Time.add (Sim.Engine.now d.Rig.engine) (Sim.Time.ms 1))
          (fun () -> Sim.Engine.stop d.Rig.engine);
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

(* ---------------- Pooled notification delivery ---------------- *)

let record_at d off =
  { Rmem.Notification.src = Cluster.Node.addr d.Rig.node0;
    kind = Rmem.Notification.Write_arrived; off; count = 4 }

(* The processes blocked under a delivery name. *)
let delivering d name =
  List.filter
    (fun (b : Sim.Engine.blocked) -> b.process = name)
    (Sim.Engine.blocked d.Rig.engine)

(* Two same-instant posts to one descriptor whose handler blocks run
   concurrently and in post order, each under the descriptor's delivery
   name.  Once their handlers return the two processes idle as daemons:
   in neither Engine.blocked nor a deadlock report.  A handler that
   raises propagates out of the run, as a spawned delivery's did. *)
let pooled_delivery () =
  let d = Rig.duo () in
  let fd = Rmem.Notification.create ~name:"probe" d.Rig.node1 in
  let release = Sim.Ivar.create ~name:"release" () in
  let entered = ref [] in
  Rmem.Notification.set_signal_handler fd
    (Some
       (fun r ->
         entered := r.Rmem.Notification.off :: !entered;
         Sim.Ivar.read release));
  Rig.run d (fun () ->
      Rmem.Notification.post fd (record_at d 0);
      Rmem.Notification.post fd (record_at d 8);
      Sim.Proc.wait (Sim.Time.ms 1);
      Alcotest.(check (list int)) "both handlers entered, in post order" [ 0; 8 ]
        (List.rev !entered);
      Alcotest.(check (list string)) "both blocked at once, each a delivery"
        [ "ivar \"release\""; "ivar \"release\"" ]
        (List.map (fun (b : Sim.Engine.blocked) -> b.resource)
           (delivering d "probe delivery"));
      Sim.Ivar.fill release ();
      Sim.Proc.wait (Sim.Time.ms 1);
      check_int "idle deliveries are not blocked" 0
        (List.length (delivering d "probe delivery"));
      Rmem.Notification.post fd (record_at d 16);
      Sim.Proc.wait (Sim.Time.ms 1);
      Alcotest.(check (list int)) "a later post delivered" [ 0; 8; 16 ]
        (List.rev !entered));
  (match Rig.run d (fun () -> Sim.Ivar.read (Sim.Ivar.create ~name:"never" ())) with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check (list string)) "the report names only the blocked main"
        [ "main" ]
        (List.map (fun (b : Sim.Engine.blocked) -> b.process) blocked));
  Rmem.Notification.set_signal_handler fd (Some (fun _ -> raise Exit));
  check_bool "a raising handler propagates" true
    (match
       Rig.run d (fun () ->
           Rmem.Notification.post fd (record_at d 24);
           Sim.Proc.wait (Sim.Time.ms 1))
     with
    | () -> false
    | exception Exit -> true)

(* A post and its delivery to a signal handler, with the poster's 1 ms
   wait (2 words): the delivery wakes an idle process, which allocates
   the continuation of its park (2), and charges the CPU, uncontended,
   at the cost of one wait (2).  Spawning a process per post cost 83
   words more. *)
let notification_delivery_budget () =
  let d = Rig.duo () in
  let fd = Rmem.Notification.create ~name:"budget" d.Rig.node1 in
  let upcalls = ref 0 in
  Rmem.Notification.set_signal_handler fd (Some (fun _ -> incr upcalls));
  let record = record_at d 0 in
  let words =
    Rig.run d (fun () ->
        Rig.words_per_op ~n:100 (fun () ->
            Rmem.Notification.post fd record;
            Sim.Proc.wait (Sim.Time.ms 1)))
  in
  check_bool "every post upcalled" true (!upcalls >= 100);
  Rig.within_budget "notification delivery to a signal handler" ~words
    ~budget:6.9

(* ---------------- Issue-side schedule ---------------- *)

(* One issuing node runs every kind of remote op beside what can delay
   or fill its trap: blocking READs, CASes and fences; a [Dds.Call]
   whose first attempt times out (its service takes 345 us) and is
   retransmitted, the first reply landing while the retransmission's
   trap waits behind that reply's reception; windowed non-blocking
   READs; a process-level CPU user and READs the node serves at
   interrupt level, which traps queue behind; and a crash 1 us into a
   READ's trap.  A fill during a trap must not wake the issuer before
   the trap ends.  Its log instants, events, busy time, accounts and
   outcomes are the figures the trap-then-park issue path gave. *)
let issue_schedule_kept () =
  let d = Rig.duo () in
  let issuer = d.Rig.node0 and home = d.Rig.node1 in
  let am_issuer = Amsg.attach issuer and am_home = Amsg.attach home in
  let cpu = Cluster.Node.cpu issuer in
  let log = ref [] in
  let note what = log := (what, Sim.Engine.now d.Rig.engine) :: !log in
  Dds.Call.serve am_home ~id:0x60 (fun ~src:_ _ ~pos:_ ~len:_ ~reply ->
      reply.Dds.Call.len <- 2;
      Sim.Time.us 345);
  Rig.run d (fun () ->
      let _, desc = Rig.shared_segment d in
      let segment =
        Rmem.Remote_memory.export d.Rig.rmem0 ~space:d.Rig.space0 ~base:0
          ~len:8192 ~rights:Rmem.Rights.all ~name:"issuer" ()
      in
      let back =
        Rmem.Remote_memory.import d.Rig.rmem1 ~remote:(Cluster.Node.addr issuer)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment) ~size:8192
          ~rights:Rmem.Rights.all ()
      in
      let dst = Rig.buffer0 d in
      Cluster.Node.spawn issuer (fun () ->
          for _ = 1 to 20 do
            Cluster.Cpu.use cpu ~category:"user" (Sim.Time.us 9);
            note "user";
            Sim.Proc.wait (Sim.Time.us 6)
          done);
      Cluster.Node.spawn home (fun () ->
          let dst =
            Rmem.Remote_memory.buffer ~space:d.Rig.space1 ~base:16384 ~len:1024
          in
          for _ = 1 to 2 do
            Rmem.Remote_memory.read_wait d.Rig.rmem1 back ~soff:0 ~count:1024
              ~dst ~doff:0 ();
            note "home read"
          done);
      Cluster.Node.spawn issuer (fun () ->
          for i = 1 to 3 do
            Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:64
              ~dst ~doff:8192 ();
            note "read";
            let w =
              Rmem.Remote_memory.cas_wait d.Rig.rmem0 desc ~doff:64
                ~old_value:(i - 1) ~new_value:i ()
            in
            note (Printf.sprintf "cas %d" w);
            Rmem.Remote_memory.fence d.Rig.rmem0 desc;
            note "fence"
          done);
      Cluster.Node.spawn issuer (fun () ->
          let p =
            Rmem.Pipeline.create
              ~config:(Rmem.Pipeline.pipelined_config ~window:2 ())
              d.Rig.rmem0
          in
          for i = 0 to 5 do
            Rmem.Pipeline.read_submit p desc ~soff:(16 * i) ~count:16 ~dst
              ~doff:(12288 + (16 * i)) ()
          done;
          Rmem.Pipeline.drain p;
          note "windowed");
      Cluster.Node.spawn issuer (fun () ->
          let n =
            Dds.Call.call (Dds.Call.endpoint am_issuer)
              ~dst:(Cluster.Node.addr home) ~id:0x60 (Bytes.of_string "abcd")
              ~reply:(Bytes.create 4)
          in
          note (Printf.sprintf "call %d" n));
      Sim.Proc.wait (Sim.Time.ms 6);
      Sim.Engine.schedule_at d.Rig.engine
        (Sim.Time.add (Sim.Engine.now d.Rig.engine) (Sim.Time.us 1))
        (fun () -> Rmem.Remote_memory.crash d.Rig.rmem0);
      (match
         Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4 ~dst
           ~doff:0 ()
       with
      | () -> note "crash: served"
      | exception Rmem.Status.Timeout -> note "crash: timed out");
      Sim.Proc.wait (Sim.Time.ms 1));
  Alcotest.(check (list (pair string int)))
    "every step at the trap-then-park path's instants"
    [ ("user", 1_349_000); ("user", 1_390_100); ("user", 1_482_500);
      ("user", 1_566_100); ("user", 1_649_700); ("user", 1_678_100);
      ("read", 1_698_800); ("user", 1_707_800); ("user", 1_740_250);
      ("user", 1_758_050); ("user", 1_773_050); ("call 2", 1_788_650);
      ("user", 1_797_650); ("user", 1_820_750); ("user", 1_838_550);
      ("user", 1_853_550); ("user", 1_868_550); ("user", 1_883_550);
      ("user", 1_898_550); ("user", 1_913_550); ("user", 1_928_550);
      ("user", 1_943_550); ("home read", 1_984_929); ("cas 0", 2_263_008);
      ("home read", 2_340_711); ("fence", 2_375_740); ("windowed", 2_412_740);
      ("read", 2_446_769); ("cas 1", 2_482_227); ("fence", 2_529_585);
      ("read", 2_595_772); ("cas 2", 2_631_230); ("fence", 2_678_588);
      ("crash: timed out", 7_348_800) ]
    (List.rev !log);
  check_int "the call sent twice" 2 (Amsg.sent am_issuer);
  check_int "events" 272 (Sim.Engine.events_fired d.Rig.engine);
  check_int "busy time" 1_604_350 (Sim.Time.to_ns (Cluster.Cpu.busy_time cpu));
  Alcotest.(check (list (pair string (float 0.)))) "accounts"
    [ ("emulation", 1393.1499999999985); ("user", 180.); ("client", 14.6);
      ("data reception", 16.600000000000001) ]
    (Metrics.Account.to_list (Cluster.Cpu.account cpu))

(* A blocking READ whose trap waits for a CPU another process holds for
   good: the issuer parks once, reported as waiting on its READ, while
   its trap waits for the CPU at event level.  A run stopped there names
   both in its deadlock report: the issuing process and the CPU. *)
let trap_blocked_on_cpu () =
  let d = Rig.duo () in
  let node0 = d.Rig.node0 in
  match
    Rig.run d (fun () ->
        let _, desc = Rig.shared_segment d in
        Cluster.Node.spawn ~name:"hog" node0 (fun () ->
            Cluster.Cpu.use (Cluster.Node.cpu node0) ~category:"hog"
              (Sim.Time.ms 1_000));
        Sim.Engine.schedule_at d.Rig.engine
          (Sim.Time.add (Sim.Engine.now d.Rig.engine) (Sim.Time.ms 1))
          (fun () -> Sim.Engine.stop d.Rig.engine);
        Sim.Proc.yield ();
        Rmem.Remote_memory.read_wait d.Rig.rmem0 desc ~soff:0 ~count:4
          ~dst:(Rig.buffer0 d) ~doff:0 ())
  with
  | () -> Alcotest.fail "expected the stopped run to report its waiters"
  | exception Sim.Engine.Deadlock (_, blocked) ->
      Alcotest.(check string) "the trap on the CPU, the issuer on its READ"
        "deadlock: rmem trap blocked on resource \"node0\" since 810.00us; \
         main blocked on ivar \"rmem READ completion\" since 810.00us"
        (Sim.Engine.deadlock_report blocked)

let suite =
  [
    Alcotest.test_case "wire write header is 8 bytes" `Quick wire_write_header_size;
    Alcotest.test_case "wire data-cell arithmetic" `Quick wire_data_cells;
    Alcotest.test_case "zero-length write doorbell" `Quick zero_length_write_doorbell;
    Alcotest.test_case "cas swaps exactly once" `Quick cas_swaps_once;
    Alcotest.test_case "cas deposits result word" `Quick cas_result_deposit;
    Alcotest.test_case "rights enforced locally" `Quick rights_enforced_locally;
    Alcotest.test_case "rights enforced remotely" `Quick rights_enforced_remotely;
    Alcotest.test_case "per-importer grants" `Quick per_importer_grants;
    Alcotest.test_case "bounds checked" `Quick bounds_checked;
    Alcotest.test_case "local buffer bounds rejected" `Quick
      local_buffer_bounds_rejected;
    Alcotest.test_case "timeout with policy refused" `Quick
      timeout_with_policy_refused;
    Alcotest.test_case "stale generations fail" `Quick stale_generation_paths;
    Alcotest.test_case "revoked segment rejects" `Quick revoked_segment_rejects;
    Alcotest.test_case "write inhibit drops writes" `Quick write_inhibit_drops;
    Alcotest.test_case "timeout detects crashed node" `Quick timeout_on_crashed_node;
    Alcotest.test_case "notification policies" `Quick notify_policies;
    Alcotest.test_case "notification queue order" `Quick notification_costs_and_queue;
    Alcotest.test_case "signal handler upcall" `Quick signal_handler_upcall;
    Alcotest.test_case "read completion notification" `Quick read_completion_notification;
    Alcotest.test_case "export pins pages" `Quick export_pins_pages;
    Alcotest.test_case "generations increase" `Quick generations_increase_per_export;
    Alcotest.test_case "generation wraparound" `Quick generation_wraps_past_invalid;
    Alcotest.test_case "well-known segment ids" `Quick well_known_id_export;
    Alcotest.test_case "fence orders writes" `Quick fence_orders_writes;
    Alcotest.test_case "fences leave address spaces alone" `Quick
      fences_leave_spaces_alone;
    Alcotest.test_case "byte accounting" `Quick stats_track_bytes;
    Alcotest.test_case "host allocation budget" `Quick allocation_budget;
    Alcotest.test_case "round-trip allocation budget" `Quick round_trip_budget;
    Alcotest.test_case "duplicated reply chunk counted once" `Quick
      duplicated_reply_chunk;
    QCheck_alcotest.to_alcotest wire_roundtrip;
    QCheck_alcotest.to_alcotest wire_exact_size;
    QCheck_alcotest.to_alcotest wire_read_reply_frame;
    QCheck_alcotest.to_alcotest wire_dispatch_agrees;
    QCheck_alcotest.to_alcotest wire_in_place_frames;
    QCheck_alcotest.to_alcotest write_then_read_identity;
    Alcotest.test_case "CAS round-trip allocation budget" `Quick
      cas_round_trip_budget;
    Alcotest.test_case "duplicated reply chunk never recycled" `Quick
      duplicated_reply_chunk_pinned;
    Alcotest.test_case "back-to-back READs through a recycled pool" `Quick
      back_to_back_reads;
    Alcotest.test_case "frame pool drained after a run" `Quick pool_drained;
    Alcotest.test_case "64 KB pipelined file write allocation budget" `Quick
      file_write_budget;
    Alcotest.test_case "crash fills an awaited completion" `Quick
      crash_fills_awaited_completion;
    Alcotest.test_case "late READ reply after a timeout dropped" `Quick
      late_read_reply_dropped;
    Alcotest.test_case "windowed 4-byte READ allocation budget" `Quick
      windowed_read_budget;
    Alcotest.test_case "stale watchdog never fires into a reused completion"
      `Quick stale_watchdog_never_fires_into_reuse;
    Alcotest.test_case "released completion awaited again refused" `Quick
      released_completion_refused;
    Alcotest.test_case "inflight drains after timeouts and a crash" `Quick
      inflight_drains;
    Alcotest.test_case "timed READ allocation budget" `Quick timed_read_budget;
    Alcotest.test_case "refused revalidation is not gave-up" `Quick
      refused_revalidation_is_not_gave_up;
    Alcotest.test_case "hybrid: a reply is complete when its call returns" `Quick
      hybrid_reply_complete;
    Alcotest.test_case "hybrid: a late reply lands in its own slot" `Quick
      hybrid_late_reply;
    Alcotest.test_case "pooled notification delivery" `Quick pooled_delivery;
    Alcotest.test_case "notification delivery allocation budget" `Quick
      notification_delivery_budget;

    Alcotest.test_case "dispatcher blocked on the CPU is reported" `Quick
      dispatcher_blocked_on_cpu;
    Alcotest.test_case "READ reply frames allocation budget"
      `Quick read_reply_frames_budget;
    Alcotest.test_case "issue side keeps its schedule" `Quick issue_schedule_kept;
    Alcotest.test_case "a READ's trap blocked on the CPU is reported" `Quick
      trap_blocked_on_cpu;
  ]
