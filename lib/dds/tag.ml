(* Packed (ts, wr) write tags.  rank-minor packing keeps int order
   equal to the (ts, wr) lexicographic order, so replicas can compare
   tag words without unpacking.  Words are ints: the 32 bits of the
   replica cell, sign-extended. *)

type t = { ts : int; wr : int }

let ranks = 16

let max_ts = (0x7fffffff / ranks) - 1

let pack { ts; wr } =
  if ts < 0 || ts > max_ts then invalid_arg "Tag.pack: timestamp out of range";
  if wr < 0 || wr >= ranks then invalid_arg "Tag.pack: rank out of range";
  (ts * ranks) + wr

let unpack w =
  if w < 0 then invalid_arg "Tag.unpack: not a tag word";
  { ts = w / ranks; wr = w mod ranks }

let busy_for wr =
  if wr < 0 || wr >= ranks then invalid_arg "Tag.busy_for: rank out of range";
  -1 - wr

let is_busy w = w < 0
let cell_bytes = 8

let encode packed value =
  let b = Bytes.create cell_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int packed);
  Bytes.set_int32_le b 4 (Int32.of_int value);
  b
