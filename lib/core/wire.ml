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
  old_value : int32;
  new_value : int32;
  reqid : int;
  notify : bool;
}

type cas_reply = { status : Status.t; reqid : int; witness : int32 }

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
      Atm.Codec.put_i32 w old_value;
      Atm.Codec.put_i32 w new_value;
      Atm.Codec.put_u16 w reqid
  | Cas_reply { status; reqid; witness } ->
      Atm.Codec.put_u8 w (tag ~op:op_cas_reply ~notify:false ~swab:false);
      Atm.Codec.put_u8 w (Status.to_code status);
      Atm.Codec.put_u16 w reqid;
      Atm.Codec.put_i32 w witness
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

(* The server's READ reply: the frame is allocated at its final size
   with the data left for the caller to copy segment memory straight
   into, at [header_bytes].  The header is set in place, in [encode]'s
   layout, without a codec writer: this is on every reply frame's path. *)
let read_reply_frame ~reqid ~chunk_off ~swab ~len =
  if reqid < 0 || reqid > 0xFFFF || chunk_off < 0 || chunk_off > 0xFFFFFFFF || len < 0
  then invalid_arg "Wire.read_reply_frame";
  let frame = Bytes.create (header_bytes + len) in
  Bytes.set_uint8 frame 0 (tag ~op:op_read_reply ~notify:false ~swab);
  Bytes.set_uint8 frame 1 (Status.to_code Status.Ok);
  Bytes.set_uint16_le frame 2 reqid;
  Bytes.set_int32_le frame 4 (Int32.of_int chunk_off);
  frame

exception Bad_message of string

(* A view of the next [len] bytes of the payload [r] reads, consumed in
   place. *)
let take r payload len =
  let pos = Atm.Codec.position r in
  Atm.Codec.skip r len;
  { buf = payload; pos; len }

let rest r payload = take r payload (Atm.Codec.remaining r)

(* A READ reply, the most frequent frame, is parsed in place, in the
   order a codec reader would take its fields. *)
let decode_read_reply payload ~swab =
  let len = Bytes.length payload in
  if len < 2 then raise Atm.Codec.Truncated;
  let status = Status.of_code (Bytes.get_uint8 payload 1) in
  if len < header_bytes then raise Atm.Codec.Truncated;
  Read_reply
    {
      status;
      reqid = Bytes.get_uint16_le payload 2;
      chunk_off = Int32.to_int (Bytes.get_int32_le payload 4) land 0xFFFFFFFF;
      swab;
      data = { buf = payload; pos = header_bytes; len = len - header_bytes };
    }

(* Every other message, through a codec reader past the tag byte. *)
let decode_fields payload ~op ~notify ~swab =
  let r = Atm.Codec.reader ~pos:1 payload in
  if op = op_write then
    let seg = Atm.Codec.get_u8 r in
    let gen = Generation.of_int (Atm.Codec.get_u16 r) in
    let off = Atm.Codec.get_u32 r in
    Write { seg; gen; off; notify; swab; data = rest r payload }
  else if op = op_read then
    let seg = Atm.Codec.get_u8 r in
    let gen = Generation.of_int (Atm.Codec.get_u16 r) in
    let soff = Atm.Codec.get_u32 r in
    let count = Atm.Codec.get_u32 r in
    let reqid = Atm.Codec.get_u16 r in
    Read { seg; gen; soff; count; reqid; notify; swab }
  else if op = op_cas then
    let seg = Atm.Codec.get_u8 r in
    let gen = Generation.of_int (Atm.Codec.get_u16 r) in
    let doff = Atm.Codec.get_u32 r in
    let old_value = Atm.Codec.get_i32 r in
    let new_value = Atm.Codec.get_i32 r in
    let reqid = Atm.Codec.get_u16 r in
    Cas { seg; gen; doff; old_value; new_value; reqid; notify }
  else if op = op_cas_reply then
    let status = Status.of_code (Atm.Codec.get_u8 r) in
    let reqid = Atm.Codec.get_u16 r in
    let witness = Atm.Codec.get_i32 r in
    Cas_reply { status; reqid; witness }
  else if op = op_write_nack then
    let status = Status.of_code (Atm.Codec.get_u8 r) in
    let seg = Atm.Codec.get_u8 r in
    let gen = Generation.of_int (Atm.Codec.get_u16 r) in
    let off = Atm.Codec.get_u32 r in
    let count = Atm.Codec.get_u32 r in
    Write_nack { status; seg; gen; off; count }
  else if op = op_write_burst then begin
    let seg = Atm.Codec.get_u8 r in
    let gen = Generation.of_int (Atm.Codec.get_u16 r) in
    let n = Atm.Codec.get_u16 r in
    (* The reader is stateful: decode extents explicitly in frame order. *)
    let rec decode_items k acc =
      if k = 0 then List.rev acc
      else begin
        let off = Atm.Codec.get_u32 r in
        let len = Atm.Codec.get_u32 r in
        decode_items (k - 1) ({ off; data = take r payload len } :: acc)
      end
    in
    Write_burst { seg; gen; notify; swab; items = decode_items n [] }
  end
  else raise (Bad_message (Printf.sprintf "op %d" op))

let decode payload =
  if Bytes.length payload = 0 then raise Atm.Codec.Truncated;
  let tag = Bytes.get_uint8 payload 0 in
  if tag land 0xF0 <> tag_base && tag land 0xF0 <> tag_base_swab then
    raise (Bad_message (Printf.sprintf "tag 0x%02x" tag));
  let swab = tag land 0xF0 = tag_base_swab in
  let op = (tag lsr 1) land 0x7 in
  if op = op_read_reply then decode_read_reply payload ~swab
  else decode_fields payload ~op ~notify:(tag land 1 = 1) ~swab
