(* Fixed-size registry records.

   Each record occupies one 64-byte slot of a clerk's registry segment.
   The valid flag is a single word written last by the (single) local
   writer, so remote readers — who fetch whole slots with remote READs —
   can rely on the paper's word-atomicity argument: a slot is either
   visibly invalid or completely, consistently filled. *)

let slot_bytes = 64
let name_bytes = 32

let flag_invalid = 0
let flag_valid = 1

let flag_moved = 2
(* The sharding layer's tombstone: the record migrated to another shard
   segment.  Unlike [flag_invalid] — which ends every probe chain — a
   moved slot is skipped, so tombstoning one name cannot orphan
   colliding names that probed past it, and a remote reader that meets
   one knows its shard map may be stale. *)

let flag_of_slot slot =
  if Bytes.length slot < 4 then flag_invalid
  else Int32.to_int (Bytes.get_int32_le slot 0)

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

let fnv_hash name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch ->
      h := !h lxor Char.code ch;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    name;
  !h

let encode t =
  let b = Bytes.make slot_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int flag_valid);
  Bytes.set_int32_le b 4 (Int32.of_int (fnv_hash t.name));
  Bytes.blit_string t.name 0 b 8 (String.length t.name);
  Bytes.set_int32_le b 40 (Int32.of_int t.node);
  Bytes.set_int32_le b 44 (Int32.of_int t.segment_id);
  Bytes.set_int32_le b 48 (Int32.of_int (Rmem.Generation.to_int t.generation));
  Bytes.set_int32_le b 52 (Int32.of_int t.size);
  Bytes.set_int32_le b 56 (Int32.of_int (Rmem.Rights.to_code t.rights));
  b

let decode slot =
  if Bytes.length slot < slot_bytes then None
  else if flag_of_slot slot <> flag_valid then None
  else begin
    let raw_name = Bytes.sub_string slot 8 name_bytes in
    let name =
      match String.index_opt raw_name '\000' with
      | Some i -> String.sub raw_name 0 i
      | None -> raw_name
    in
    let field off = Int32.to_int (Bytes.get_int32_le slot off) in
    Some
      {
        name;
        node = field 40;
        segment_id = field 44;
        generation = Rmem.Generation.of_int (field 48);
        size = field 52;
        rights = Rmem.Rights.of_code (field 56);
      }
  end

(* [decode] followed by a name comparison, read in place from the slot
   at [addr] of [space]: the name field must hold [name]'s bytes and
   then a NUL (unless they fill all 32), so a longer name or one holding
   a NUL never matches.  Nothing is copied; a hit's record shares
   [name]. *)
let word space addr off = Cluster.Address_space.read_word space ~addr:(addr + off)

let rec name_from space addr name i =
  i >= name_bytes
  ||
  let byte =
    (word space addr (8 + (i land lnot 3)) lsr (8 * (i land 3))) land 0xff
  in
  if i = String.length name then byte = 0
  else byte = Char.code name.[i] && name_from space addr name (i + 1)

let lookup_at space ~addr name =
  if
    word space addr 0 = flag_valid
    && String.length name <= name_bytes
    && (not (String.contains name '\000'))
    && name_from space addr name 0
  then
    Some
      {
        name;
        node = word space addr 40;
        segment_id = word space addr 44;
        generation = Rmem.Generation.of_int (word space addr 48);
        size = word space addr 52;
        rights = Rmem.Rights.of_code (word space addr 56);
      }
  else None

let invalid_slot () = Bytes.make slot_bytes '\000'

(* A forwarding tombstone: the 60 bytes a moved slot no longer needs
   carry the destination shard's coordinates, its bucket range, and the
   epoch that published the migration.  A reader that trips on one can
   patch its cached shard map locally and retry against the new owner
   directly — no round trip to the map host, so an epoch change never
   convoys the healing clients behind one segment.

   Layout: [flag=moved 4][epoch 4][lo 4][hi 4][node 4][seg 4][gen 4]
   [slots 4] = 32 bytes, rest zero.  A bare 4-byte tombstone (epoch 0)
   decodes to [None] and the reader falls back to a map refetch. *)

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

let decode_forward slot =
  if Bytes.length slot < 32 then None
  else if flag_of_slot slot <> flag_moved then None
  else begin
    let field off = Int32.to_int (Bytes.get_int32_le slot off) in
    let f =
      {
        fwd_epoch = field 4;
        fwd_lo = field 8;
        fwd_hi = field 12;
        fwd_node = field 16;
        fwd_segment_id = field 20;
        fwd_generation = Rmem.Generation.of_int (field 24);
        fwd_slots = field 28;
      }
    in
    if
      f.fwd_epoch > 0 && f.fwd_lo >= 0 && f.fwd_hi >= f.fwd_lo && f.fwd_node >= 0
      && f.fwd_segment_id >= 0 && f.fwd_slots > 0
      && f.fwd_slots land (f.fwd_slots - 1) = 0
    then Some f
    else None
  end
