(* Fixed-size registry records.

   Each record occupies one 64-byte slot of a clerk's registry segment.
   The flag word is a single word written last by the (single) local
   writer, so remote readers — who fetch whole slots with remote READs —
   can rely on the paper's word-atomicity argument: a slot is either
   visibly not a record or completely, consistently filled.  What each
   flag means to a reader is {!Registry}'s one slot rule; this module
   only lays out the bytes. *)

let slot_bytes = 64
let name_bytes = 32

let flag_invalid = 0
let flag_valid = 1
let flag_moved = 2

type t = {
  name : string;
  node : int;  (* exporter's network address *)
  segment_id : int;
  generation : Rmem.Generation.t;
  size : int;
  rights : Rmem.Rights.t;
}

let make ~name ~node ~segment_id ~generation ~size ~rights =
  if String.length name > name_bytes then
    invalid_arg "Record.make: name too long";
  if String.contains name '\000' then
    invalid_arg "Record.make: name contains NUL";
  { name; node; segment_id; generation; size; rights }

(* Layout: [flag 4][hash 4][name 32][node 4][seg 4][gen 4][size 4][rights 4]
   [spare 4] = 64 bytes. *)

(* A plain loop: the accumulator stays in a register, so hashing a name
   allocates nothing. *)
let fnv_hash name =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length name - 1 do
    h := !h lxor Char.code (String.unsafe_get name i);
    h := !h * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let encode_into t b ~pos =
  Bytes.fill b pos slot_bytes '\000';
  Bytes.set_int32_le b pos (Int32.of_int flag_valid);
  Bytes.set_int32_le b (pos + 4) (Int32.of_int (fnv_hash t.name));
  Bytes.blit_string t.name 0 b (pos + 8) (String.length t.name);
  Bytes.set_int32_le b (pos + 40) (Int32.of_int t.node);
  Bytes.set_int32_le b (pos + 44) (Int32.of_int t.segment_id);
  Bytes.set_int32_le b (pos + 48)
    (Int32.of_int (Rmem.Generation.to_int t.generation));
  Bytes.set_int32_le b (pos + 52) (Int32.of_int t.size);
  Bytes.set_int32_le b (pos + 56) (Int32.of_int (Rmem.Rights.to_code t.rights))

let encode t =
  let b = Bytes.create slot_bytes in
  encode_into t b ~pos:0;
  b

(* Slot images read in place at [addr] of [space], nothing copied.  The
   flag word is not looked at here: {!Registry.classify} reads it first
   and calls these only on a slot it holds to be a record or a
   tombstone. *)
let word space addr off = Cluster.Address_space.read_word space ~addr:(addr + off)

let name_byte space addr i =
  (word space addr (8 + (i land lnot 3)) lsr (8 * (i land 3))) land 0xff

let name_at space ~addr =
  let rec length i =
    if i < name_bytes && name_byte space addr i <> 0 then length (i + 1) else i
  in
  String.init (length 0) (fun i -> Char.chr (name_byte space addr i))

(* The name field must hold [name]'s bytes and then a NUL (unless they
   fill all 32), so a longer name or one holding a NUL never matches. *)
let rec name_from space addr name i =
  i >= name_bytes
  ||
  let byte = name_byte space addr i in
  if i = String.length name then byte = 0
  else byte = Char.code name.[i] && name_from space addr name (i + 1)

let holds_at space ~addr name =
  String.length name <= name_bytes
  && (not (String.contains name '\000'))
  && name_from space addr name 0

let body_at space ~addr name =
  {
    name;
    node = word space addr 40;
    segment_id = word space addr 44;
    generation = Rmem.Generation.of_int (word space addr 48);
    size = word space addr 52;
    rights = Rmem.Rights.of_code (word space addr 56);
  }

let decode_at space ~addr =
  if word space addr 0 <> flag_valid then None
  else Some (body_at space ~addr (name_at space ~addr))

(* A forwarding tombstone: the 60 bytes a moved slot no longer needs
   carry the destination shard's coordinates, its bucket range, and the
   epoch that published the migration.  A reader that trips on one can
   patch its cached shard map locally and retry against the new owner
   directly — no round trip to the map host, so an epoch change never
   convoys the healing clients behind one segment.

   Layout: [flag=moved 4][epoch 4][lo 4][hi 4][node 4][seg 4][gen 4]
   [slots 4] = 32 bytes, rest zero.  A tombstone whose spare bytes are
   not a well-formed forward (a deletion's keeps the old record's
   bytes) reads as [None] and the reader falls back to a map
   refetch. *)

type forward = {
  fwd_epoch : int;
  fwd_lo : int;
  fwd_hi : int;  (* inclusive bucket range of the destination shard *)
  fwd_node : int;
  fwd_segment_id : int;
  fwd_generation : Rmem.Generation.t;
  fwd_slots : int;
}

let encode_forward f =
  let b = Bytes.make slot_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int flag_moved);
  Bytes.set_int32_le b 4 (Int32.of_int f.fwd_epoch);
  Bytes.set_int32_le b 8 (Int32.of_int f.fwd_lo);
  Bytes.set_int32_le b 12 (Int32.of_int f.fwd_hi);
  Bytes.set_int32_le b 16 (Int32.of_int f.fwd_node);
  Bytes.set_int32_le b 20 (Int32.of_int f.fwd_segment_id);
  Bytes.set_int32_le b 24 (Int32.of_int (Rmem.Generation.to_int f.fwd_generation));
  Bytes.set_int32_le b 28 (Int32.of_int f.fwd_slots);
  b

let forward_at space ~addr =
  let field off = word space addr off in
  let epoch = field 4 and lo = field 8 and hi = field 12 in
  let node = field 16 and segment_id = field 20 and slots = field 28 in
  match Rmem.Generation.of_int (field 24) with
  | generation
    when epoch > 0 && lo >= 0 && hi >= lo && node >= 0 && segment_id >= 0
         && slots > 0
         && slots land (slots - 1) = 0 ->
      Some
        {
          fwd_epoch = epoch;
          fwd_lo = lo;
          fwd_hi = hi;
          fwd_node = node;
          fwd_segment_id = segment_id;
          fwd_generation = generation;
          fwd_slots = slots;
        }
  | _ | (exception Invalid_argument _) -> None
