(* Wire format of the remote-memory protocol.

   Every frame starts with a tag byte that both identifies the operation
   and carries the notify bit (so the demultiplexer and the paper's
   "8-byte header, 40 data bytes per cell" arithmetic line up):

     tag = 0x10 | (op << 1) | notify

   A WRITE frame is exactly [8-byte header][data]: tag, segment id,
   export generation and offset, with the byte count implicit in the
   frame length.  One cell therefore carries 40 data bytes, matching the
   paper.  Block transfers are sequences of such frames in bursts.

   Data fields are views, not copies: [encode] copies each view once,
   into a frame buffer of exactly the frame's size, and [decode] returns
   views into the received payload. *)

type view = { buf : bytes; pos : int; len : int }

let view buf = { buf; pos = 0; len = Bytes.length buf }

type write_req = {
  seg : int;
  gen : Generation.t;
  off : int;
  notify : bool;
  swab : bool;
  data : view;
}

type read_req = {
  seg : int;
  gen : Generation.t;
  soff : int;
  count : int;
  reqid : int;
  notify : bool;
  swab : bool;
}

type read_reply = {
  status : Status.t;
  reqid : int;
  chunk_off : int;
  swab : bool;
  data : view;
}

type cas_req = {
  seg : int;
  gen : Generation.t;
  doff : int;
  old_value : int;
  new_value : int;
  reqid : int;
  notify : bool;
}

type cas_reply = { status : Status.t; reqid : int; witness : int }

type write_nack = {
  status : Status.t;
  seg : int;
  gen : Generation.t;
  off : int;
  count : int;
}

type burst_item = { off : int; data : view }

type write_burst = {
  seg : int;
  gen : Generation.t;
  notify : bool;
  swab : bool;
  items : burst_item list;
}

type message =
  | Write of write_req
  | Read of read_req
  | Read_reply of read_reply
  | Cas of cas_req
  | Cas_reply of cas_reply
  | Write_nack of write_nack
  | Write_burst of write_burst

let tag_base = 0x10
let tag_base_swab = 0x30
(* The second tag range is the paper's §3.6 heterogeneity hook: "this
   scheme requires a bit in each incoming request to decide whether to
   swap or not".  Requests in the 0x30 range ask the receiving side to
   byte-swap the data words during the FIFO copy. *)

let op_write = 1
let op_read = 2
let op_read_reply = 3
let op_cas = 4
let op_cas_reply = 5
let op_write_nack = 6
let op_write_burst = 7

let tag ~op ~notify ~swab =
  (if swab then tag_base_swab else tag_base)
  lor (op lsl 1)
  lor (if notify then 1 else 0)

let tags =
  List.init 16 (fun i -> tag_base lor i)
  @ List.init 16 (fun i -> tag_base_swab lor i)

(* Swap the byte order of each aligned 32-bit word; a trailing partial
   word is left alone (word-structured data is the point of the bit). *)
let swap_words ?(pos = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - pos in
  let out = Bytes.sub data pos len in
  for w = 0 to (len / 4) - 1 do
    let base = w * 4 in
    for b = 0 to 3 do
      Bytes.set out (base + b) (Bytes.get data (pos + base + 3 - b))
    done
  done;
  out

let header_bytes = 8
let data_bytes_per_cell = Atm.Aal.cell_payload_bytes - header_bytes (* 40 *)

let data_cells len =
  if len <= 0 then 1
  else (len + data_bytes_per_cell - 1) / data_bytes_per_cell

(* A burst frame is framed ONCE at the AAL layer: one 6-byte burst
   header, then an 8-byte (offset, length) descriptor per extent ahead
   of its data.  Unlike the per-cell WRITE header, extent data streams
   at the full 48 payload bytes per cell — that, plus the single trap,
   is the batching win the pipeline engine buys. *)
let burst_header_bytes = 6
let burst_item_header_bytes = 8

let burst_payload_bytes items =
  List.fold_left (fun acc item -> acc + item.data.len) 0 items

let burst_frame_bytes items =
  List.fold_left
    (fun acc item -> acc + burst_item_header_bytes + item.data.len)
    burst_header_bytes items

(* The encoded size of each message: the tag byte plus its fields. *)
let frame_bytes = function
  | Write { data; _ } | Read_reply { data; _ } -> header_bytes + data.len
  | Read _ -> 14
  | Cas _ -> 18
  | Cas_reply _ -> 8
  | Write_nack _ -> 13
  | Write_burst { items; _ } -> burst_frame_bytes items

let put_view w v = Atm.Codec.put_sub w v.buf ~pos:v.pos ~len:v.len

let encode message =
  let w = Atm.Codec.writer ~capacity:(frame_bytes message) () in
  (match message with
  | Write { seg; gen; off; notify; swab; data } ->
      Atm.Codec.put_u8 w (tag ~op:op_write ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w off;
      put_view w data
  | Read { seg; gen; soff; count; reqid; notify; swab } ->
      Atm.Codec.put_u8 w (tag ~op:op_read ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w soff;
      Atm.Codec.put_u32 w count;
      Atm.Codec.put_u16 w reqid
  | Read_reply { status; reqid; chunk_off; swab; data } ->
      Atm.Codec.put_u8 w (tag ~op:op_read_reply ~notify:false ~swab);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u16 w reqid;
      Atm.Codec.put_u32 w chunk_off;
      put_view w data
  | Cas { seg; gen; doff; old_value; new_value; reqid; notify } ->
      Atm.Codec.put_u8 w (tag ~op:op_cas ~notify ~swab:false);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w doff;
      Atm.Codec.put_i32 w (Int32.of_int old_value);
      Atm.Codec.put_i32 w (Int32.of_int new_value);
      Atm.Codec.put_u16 w reqid
  | Cas_reply { status; reqid; witness } ->
      Atm.Codec.put_u8 w (tag ~op:op_cas_reply ~notify:false ~swab:false);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u16 w reqid;
      Atm.Codec.put_i32 w (Int32.of_int witness)
  | Write_nack { status; seg; gen; off; count } ->
      Atm.Codec.put_u8 w (tag ~op:op_write_nack ~notify:false ~swab:false);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u32 w off;
      Atm.Codec.put_u32 w count
  | Write_burst { seg; gen; notify; swab; items } ->
      Atm.Codec.put_u8 w (tag ~op:op_write_burst ~notify ~swab);
      Atm.Codec.put_u8 w seg;
      Atm.Codec.put_u16 w (Generation.to_int gen);
      Atm.Codec.put_u16 w (List.length items);
      List.iter
        (fun { off; data } ->
          Atm.Codec.put_u32 w off;
          Atm.Codec.put_u32 w data.len;
          put_view w data)
        items);
  Atm.Codec.contents w

(* Frames built in place: each is a pooled frame of its final size
   (see {!Atm.Frame.take}) whose fields are set with [Bytes.set_*], in
   [encode]'s layout, without a codec writer or a message record.  These
   are on every request's and every reply's path; [encode] stays the
   reference they are tested against. *)

let in_range name v max = if v < 0 || v > max then invalid_arg name

(* The first 8 bytes of a request frame or a READ reply: the tag, one
   byte (segment or status), 16 bits (generation or request id), then
   32 bits (offset). *)
let set_header frame ~tag ~b1 ~u16 ~u32 =
  Bytes.set_uint8 frame 0 tag;
  Bytes.set_uint8 frame 1 b1;
  Bytes.set_uint16_le frame 2 u16;
  Bytes.set_int32_le frame 4 (Int32.of_int u32)

let write_frame pool ~seg ~gen ~off ~notify ~swab buf ~pos ~len =
  in_range "Wire.write_frame" seg 0xFF;
  in_range "Wire.write_frame" off 0xFFFFFFFF;
  let f = Atm.Frame.take pool (header_bytes + len) in
  let frame = Atm.Frame.payload f in
  set_header frame
    ~tag:(tag ~op:op_write ~notify ~swab)
    ~b1:seg ~u16:(Generation.to_int gen) ~u32:off;
  Bytes.blit buf pos frame header_bytes len;
  f

let read_frame pool ~seg ~gen ~soff ~count ~reqid ~notify ~swab =
  in_range "Wire.read_frame" seg 0xFF;
  in_range "Wire.read_frame" soff 0xFFFFFFFF;
  in_range "Wire.read_frame" count 0xFFFFFFFF;
  in_range "Wire.read_frame" reqid 0xFFFF;
  let f = Atm.Frame.take pool 14 in
  let frame = Atm.Frame.payload f in
  set_header frame
    ~tag:(tag ~op:op_read ~notify ~swab)
    ~b1:seg ~u16:(Generation.to_int gen) ~u32:soff;
  Bytes.set_int32_le frame 8 (Int32.of_int count);
  Bytes.set_uint16_le frame 12 reqid;
  f

let cas_frame pool ~seg ~gen ~doff ~old_value ~new_value ~reqid ~notify =
  in_range "Wire.cas_frame" seg 0xFF;
  in_range "Wire.cas_frame" doff 0xFFFFFFFF;
  in_range "Wire.cas_frame" reqid 0xFFFF;
  let f = Atm.Frame.take pool 18 in
  let frame = Atm.Frame.payload f in
  set_header frame
    ~tag:(tag ~op:op_cas ~notify ~swab:false)
    ~b1:seg ~u16:(Generation.to_int gen) ~u32:doff;
  Bytes.set_int32_le frame 8 (Int32.of_int old_value);
  Bytes.set_int32_le frame 12 (Int32.of_int new_value);
  Bytes.set_uint16_le frame 16 reqid;
  f

let cas_reply_frame pool ~status ~reqid ~witness =
  in_range "Wire.cas_reply_frame" reqid 0xFFFF;
  let f = Atm.Frame.take pool 8 in
  let frame = Atm.Frame.payload f in
  Bytes.set_uint8 frame 0 (tag ~op:op_cas_reply ~notify:false ~swab:false);
  Bytes.set_uint8 frame 1 (Status.to_code status);
  Bytes.set_uint16_le frame 2 reqid;
  Bytes.set_int32_le frame 4 (Int32.of_int witness);
  f

(* The server's READ reply, with the data left for the caller to copy
   segment memory straight into, at [header_bytes]. *)
let read_reply_frame pool ~reqid ~chunk_off ~swab ~len =
  in_range "Wire.read_reply_frame" reqid 0xFFFF;
  in_range "Wire.read_reply_frame" chunk_off 0xFFFFFFFF;
  if len < 0 then invalid_arg "Wire.read_reply_frame";
  let f = Atm.Frame.take pool (header_bytes + len) in
  set_header (Atm.Frame.payload f)
    ~tag:(tag ~op:op_read_reply ~notify:false ~swab)
    ~b1:(Status.to_code Status.Ok) ~u16:reqid ~u32:chunk_off;
  f

type extent = { off : int; len : int; writes : (int * bytes) list }

(* The writes of one extent, oldest first, each to its place in the
   frame ([base] is where segment offset 0 would fall). *)
let rec copy_writes frame ~base ~lo ~hi = function
  | [] -> ()
  | (off, data) :: older ->
      copy_writes frame ~base ~lo ~hi older;
      let len = Bytes.length data in
      if off < lo || off + len > hi then invalid_arg "Wire.write_burst_frame";
      Bytes.blit data 0 frame (base + off) len

let rec copy_extents frame pos = function
  | [] -> ()
  | e :: rest ->
      in_range "Wire.write_burst_frame" e.off 0xFFFFFFFF;
      Bytes.set_int32_le frame pos (Int32.of_int e.off);
      Bytes.set_int32_le frame (pos + 4) (Int32.of_int e.len);
      let data = pos + burst_item_header_bytes in
      copy_writes frame ~base:(data - e.off) ~lo:e.off ~hi:(e.off + e.len)
        e.writes;
      copy_extents frame (data + e.len) rest

let write_burst_frame pool ~seg ~gen ~notify ~swab extents =
  in_range "Wire.write_burst_frame" seg 0xFF;
  let f =
    Atm.Frame.take pool
      (List.fold_left
         (fun acc e -> acc + burst_item_header_bytes + e.len)
         burst_header_bytes extents)
  in
  let frame = Atm.Frame.payload f in
  Bytes.set_uint8 frame 0 (tag ~op:op_write_burst ~notify ~swab);
  Bytes.set_uint8 frame 1 seg;
  Bytes.set_uint16_le frame 2 (Generation.to_int gen);
  Bytes.set_uint16_le frame 4 (List.length extents);
  copy_extents frame burst_header_bytes extents;
  f

exception Bad_message of string

(* Receiving: one set of field readers, used in place by [dispatch] and
   through it by [decode], so the data path and the reference codec
   cannot disagree on a field, a bound or an exception. *)

type ('a, 'b, 'r) handlers = {
  write :
    'a -> 'b -> seg:int -> gen:Generation.t -> off:int -> notify:bool ->
    swab:bool -> bytes -> pos:int -> len:int -> 'r;
  read :
    'a -> 'b -> seg:int -> gen:Generation.t -> soff:int -> count:int ->
    reqid:int -> notify:bool -> swab:bool -> 'r;
  read_reply :
    'a -> 'b -> status:Status.t -> reqid:int -> chunk_off:int -> swab:bool ->
    bytes -> pos:int -> len:int -> 'r;
  cas :
    'a -> 'b -> seg:int -> gen:Generation.t -> doff:int -> old_value:int ->
    new_value:int -> reqid:int -> notify:bool -> 'r;
  cas_reply : 'a -> 'b -> status:Status.t -> reqid:int -> witness:int -> 'r;
  write_nack :
    'a -> 'b -> status:Status.t -> seg:int -> gen:Generation.t -> off:int ->
    count:int -> 'r;
  write_burst :
    'a -> 'b -> seg:int -> gen:Generation.t -> notify:bool -> swab:bool ->
    burst_item list -> 'r;
}

let u8 payload pos = Bytes.get_uint8 payload pos
let u16 payload pos = Bytes.get_uint16_le payload pos
let u32 payload pos = Int32.to_int (Bytes.get_int32_le payload pos) land 0xFFFFFFFF
let i32 payload pos = Int32.to_int (Bytes.get_int32_le payload pos)
let gen_at payload pos = Generation.of_int (u16 payload pos)

(* Every field of a fixed-size frame is checked at once: the frame must
   reach [len] bytes, as a codec reader taking the fields in order
   would have required. *)
let need payload len =
  if Bytes.length payload < len then raise Atm.Codec.Truncated

(* A status byte comes first after the tag; it is checked (and may be
   rejected) before the rest of the frame's length. *)
let status_at payload =
  need payload 2;
  Status.of_code (u8 payload 1)

(* A burst's extents, in frame order, as views into the payload. *)
let burst_items payload n =
  let rec items k pos acc =
    if k = 0 then List.rev acc
    else begin
      need payload (pos + burst_item_header_bytes);
      let off = u32 payload pos in
      let len = u32 payload (pos + 4) in
      let data_pos = pos + burst_item_header_bytes in
      need payload (data_pos + len);
      items (k - 1) (data_pos + len)
        ({ off; data = { buf = payload; pos = data_pos; len } } :: acc)
    end
  in
  items n burst_header_bytes []

let dispatch h a b payload =
  need payload 1;
  let tag = u8 payload 0 in
  let range = tag land 0xF0 in
  if range <> tag_base && range <> tag_base_swab then
    raise (Bad_message (Printf.sprintf "tag 0x%02x" tag));
  let swab = range = tag_base_swab in
  let notify = tag land 1 = 1 in
  let op = (tag lsr 1) land 0x7 in
  let len = Bytes.length payload in
  if op = op_read_reply then begin
    let status = status_at payload in
    need payload header_bytes;
    h.read_reply a b ~status ~reqid:(u16 payload 2) ~chunk_off:(u32 payload 4)
      ~swab payload ~pos:header_bytes ~len:(len - header_bytes)
  end
  else if op = op_write then begin
    need payload header_bytes;
    h.write a b ~seg:(u8 payload 1) ~gen:(gen_at payload 2)
      ~off:(u32 payload 4) ~notify ~swab payload ~pos:header_bytes
      ~len:(len - header_bytes)
  end
  else if op = op_read then begin
    need payload 14;
    h.read a b ~seg:(u8 payload 1) ~gen:(gen_at payload 2)
      ~soff:(u32 payload 4) ~count:(u32 payload 8) ~reqid:(u16 payload 12)
      ~notify ~swab
  end
  else if op = op_cas then begin
    need payload 18;
    h.cas a b ~seg:(u8 payload 1) ~gen:(gen_at payload 2)
      ~doff:(u32 payload 4)
      ~old_value:(i32 payload 8) ~new_value:(i32 payload 12)
      ~reqid:(u16 payload 16) ~notify
  end
  else if op = op_cas_reply then begin
    let status = status_at payload in
    need payload 8;
    h.cas_reply a b ~status ~reqid:(u16 payload 2)
      ~witness:(i32 payload 4)
  end
  else if op = op_write_nack then begin
    let status = status_at payload in
    need payload 13;
    h.write_nack a b ~status ~seg:(u8 payload 2) ~gen:(gen_at payload 3)
      ~off:(u32 payload 5) ~count:(u32 payload 9)
  end
  else if op = op_write_burst then begin
    need payload burst_header_bytes;
    let items = burst_items payload (u16 payload 4) in
    h.write_burst a b ~seg:(u8 payload 1) ~gen:(gen_at payload 2) ~notify
      ~swab items
  end
  else raise (Bad_message (Printf.sprintf "op %d" op))

let decoder =
  {
    write =
      (fun () () ~seg ~gen ~off ~notify ~swab buf ~pos ~len ->
        Write { seg; gen; off; notify; swab; data = { buf; pos; len } });
    read =
      (fun () () ~seg ~gen ~soff ~count ~reqid ~notify ~swab ->
        Read { seg; gen; soff; count; reqid; notify; swab });
    read_reply =
      (fun () () ~status ~reqid ~chunk_off ~swab buf ~pos ~len ->
        Read_reply { status; reqid; chunk_off; swab; data = { buf; pos; len } });
    cas =
      (fun () () ~seg ~gen ~doff ~old_value ~new_value ~reqid ~notify ->
        Cas { seg; gen; doff; old_value; new_value; reqid; notify });
    cas_reply =
      (fun () () ~status ~reqid ~witness -> Cas_reply { status; reqid; witness });
    write_nack =
      (fun () () ~status ~seg ~gen ~off ~count ->
        Write_nack { status; seg; gen; off; count });
    write_burst =
      (fun () () ~seg ~gen ~notify ~swab items ->
        Write_burst { seg; gen; notify; swab; items });
  }

let decode payload = dispatch decoder () () payload
