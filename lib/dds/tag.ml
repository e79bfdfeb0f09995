(* Packed (ts, wr) write tags.  rank-minor packing keeps Int32 order
   equal to the (ts, wr) lexicographic order, so replicas can compare
   tag words without unpacking. *)

type t = { ts : int; wr : int }

let ranks = 16

let compare a b =
  match Stdlib.compare a.ts b.ts with 0 -> Stdlib.compare a.wr b.wr | c -> c

let max_ts = (0x7fffffff / ranks) - 1

let pack { ts; wr } =
  if ts < 0 || ts > max_ts then invalid_arg "Tag.pack: timestamp out of range";
  if wr < 0 || wr >= ranks then invalid_arg "Tag.pack: rank out of range";
  Int32.of_int ((ts * ranks) + wr)

let unpack w =
  let v = Int32.to_int w in
  if v < 0 then invalid_arg "Tag.unpack: not a tag word";
  { ts = v / ranks; wr = v mod ranks }

let busy = Int32.minus_one
let busy_for wr =
  if wr < 0 || wr >= ranks then invalid_arg "Tag.busy_for: rank out of range";
  Int32.of_int (-1 - wr)

let is_busy w = Int32.compare w 0l < 0
let cell_bytes = 8

let encode tag value =
  let b = Bytes.create cell_bytes in
  Bytes.set_int32_le b 0 (pack tag);
  Bytes.set_int32_le b 4 value;
  b

let decode b =
  if Bytes.length b <> cell_bytes then None
  else
    let w = Bytes.get_int32_le b 0 in
    if Int32.compare w 0l < 0 then None
    else Some (unpack w, Bytes.get_int32_le b 4)
