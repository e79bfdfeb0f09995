(* Little binary codec for wire payloads.

   All multi-byte integers are little-endian.  Readers raise [Truncated]
   rather than returning garbage when a payload is shorter than its
   header claims. *)

exception Truncated

(* A writer over a caller's buffer ([writer_at]) never grows it: the
   bytes are the caller's only where they land in place. *)
type writer = { mutable buf : bytes; mutable pos : int; grows : bool }

let writer ?(capacity = 64) () =
  { buf = Bytes.create capacity; pos = 0; grows = true }

let writer_at buf ~pos = { buf; pos; grows = false }

let ensure w extra =
  let needed = w.pos + extra in
  let capacity = Bytes.length w.buf in
  if needed > capacity then begin
    if not w.grows then invalid_arg "Codec: writer_at buffer full";
    let next = Int.max needed (capacity * 2) in
    let buf = Bytes.make next '\000' in
    Bytes.blit w.buf 0 buf 0 w.pos;
    w.buf <- buf
  end

let put_u8 w v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.put_u8";
  ensure w 1;
  Bytes.set_uint8 w.buf w.pos v;
  w.pos <- w.pos + 1

let put_u16 w v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.put_u16";
  ensure w 2;
  Bytes.set_uint16_le w.buf w.pos v;
  w.pos <- w.pos + 2

let put_u32 w v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.put_u32";
  ensure w 4;
  Bytes.set_int32_le w.buf w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let put_i32 w v =
  ensure w 4;
  Bytes.set_int32_le w.buf w.pos v;
  w.pos <- w.pos + 4

let put_sub w b ~pos ~len =
  ensure w len;
  Bytes.blit b pos w.buf w.pos len;
  w.pos <- w.pos + len

let put_bytes w b = put_sub w b ~pos:0 ~len:(Bytes.length b)

let put_string w s =
  let n = String.length s in
  if n > 0xFFFF then invalid_arg "Codec.put_string: too long";
  put_u16 w n;
  ensure w n;
  Bytes.blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let put_padding w n =
  ensure w n;
  Bytes.fill w.buf w.pos n '\000';
  w.pos <- w.pos + n

let length w = w.pos

(* A writer filled to its capacity hands over its buffer, not a copy.
   Any later put reallocates first, so it cannot alias the result. *)
let contents w =
  if w.pos = Bytes.length w.buf then w.buf else Bytes.sub w.buf 0 w.pos

type reader = { data : bytes; mutable rpos : int }

let reader data = { data; rpos = 0 }

let remaining r = Bytes.length r.data - r.rpos

let need r n = if remaining r < n then raise Truncated

let get_u8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.rpos in
  r.rpos <- r.rpos + 1;
  v

let get_u16 r =
  need r 2;
  let v = Bytes.get_uint16_le r.data r.rpos in
  r.rpos <- r.rpos + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.rpos) land 0xFFFFFFFF in
  r.rpos <- r.rpos + 4;
  v

let get_bytes r n =
  if n < 0 then invalid_arg "Codec.get_bytes";
  need r n;
  let b = Bytes.sub r.data r.rpos n in
  r.rpos <- r.rpos + n;
  b

let skip r n =
  if n < 0 then invalid_arg "Codec.skip";
  need r n;
  r.rpos <- r.rpos + n

let rest r = get_bytes r (remaining r)

let position r = r.rpos
