(* The shard map: the name service's scale-out directory.

   The 30-bit FNV hash space every clerk already uses is folded into a
   fixed bucket space; the map carves that space into contiguous,
   inclusive, gap-free bucket ranges, each owned by one registry shard
   segment on some node.  The whole map serializes into one small
   exported segment whose first word is the epoch — the reconciler
   publishes a new map by writing the body first and the epoch word last
   (with notification), so a remote reader that fetches the segment and
   finds a well-formed, total map under some epoch can trust it; a torn
   fetch simply fails [decode] and is retried.

   Everything here is pure layout and arithmetic: no I/O, so the clerk
   (client side) and the reconciler (control side) agree by
   construction. *)

let buckets = 65536

(* FNV clusters similar names: two names differing in the last byte land
   403 (= FNV prime mod 2^16) buckets apart, so a family of consecutive
   service names — exactly the keys a Zipf workload makes hot together —
   would pile into one contiguous range and hence one shard.  An
   avalanche finalizer (xor-shift/multiply rounds) decorrelates the low
   bucket bits from any single input byte before the fold, scattering
   hot families across shards.  The registries' probe chains keep using
   the raw hash — within one table only within-table scatter matters. *)
let bucket_of_name name =
  let h = Record.fnv_hash name in
  let h = h lxor (h lsr 16) in
  let h = h * 0x7feb352d land 0x3FFFFFFF in
  let h = h lxor (h lsr 15) in
  let h = h * 0x846ca68b land 0x3FFFFFFF in
  let h = h lxor (h lsr 16) in
  h land (buckets - 1)

let map_name = "shard.map"

let header_bytes = 8
(* [epoch 4][entry count 4] *)

let entry_bytes = 24
(* [lo 4][hi 4][node 4][segment id 4][generation 4][slots 4] *)

let max_entries = 64
let segment_bytes = header_bytes + (max_entries * entry_bytes)

let body_off = 4
(* Publication order: everything from [body_off] first, then the epoch
   word at offset 0 — the doorbell. *)

type entry = {
  lo : int;
  hi : int;  (* inclusive bucket range *)
  node : int;  (* shard host's network address *)
  segment_id : int;
  generation : Rmem.Generation.t;
  slots : int;  (* registry slots serialized in the shard segment *)
}

type t = { epoch : int; entries : entry list (* sorted by [lo] *) }

(* Sorted, gap-free, and covering the whole bucket space. *)
let total entries =
  let rec go expect = function
    | [] -> expect = buckets
    | e :: rest ->
        e.lo = expect && e.hi >= e.lo && e.hi < buckets && go (e.hi + 1) rest
  in
  go 0 entries

let rec owner_from bucket i = function
  | [] -> -1
  | e :: rest -> if e.lo <= bucket && bucket <= e.hi then i else owner_from bucket (i + 1) rest

let owner_index t bucket = owner_from bucket 0 t.entries
let entry_at t i = List.nth t.entries i

let owner t bucket =
  match owner_index t bucket with -1 -> None | i -> Some (entry_at t i)

let encode_entry b off e =
  let w i v = Bytes.set_int32_le b (off + (4 * i)) (Int32.of_int v) in
  w 0 e.lo;
  w 1 e.hi;
  w 2 e.node;
  w 3 e.segment_id;
  w 4 (Rmem.Generation.to_int e.generation);
  w 5 e.slots

let decode_entry b off =
  let f i = Int32.to_int (Bytes.get_int32_le b (off + (4 * i))) in
  {
    lo = f 0;
    hi = f 1;
    node = f 2;
    segment_id = f 3;
    generation = Rmem.Generation.of_int (f 4);
    slots = f 5;
  }

let encode t =
  let n = List.length t.entries in
  if n > max_entries then invalid_arg "Shardmap.encode: too many entries";
  let b = Bytes.make segment_bytes '\000' in
  Bytes.set_int32_le b 0 (Int32.of_int t.epoch);
  Bytes.set_int32_le b 4 (Int32.of_int n);
  List.iteri
    (fun i e -> encode_entry b (header_bytes + (i * entry_bytes)) e)
    t.entries;
  b

let encode_body t =
  let b = encode t in
  Bytes.sub b body_off (segment_bytes - body_off)

let decode b =
  if Bytes.length b < segment_bytes then None
  else begin
    let epoch = Int32.to_int (Bytes.get_int32_le b 0) in
    let n = Int32.to_int (Bytes.get_int32_le b 4) in
    if epoch <= 0 || n <= 0 || n > max_entries then None
    else begin
      let entries =
        List.init n (fun i -> decode_entry b (header_bytes + (i * entry_bytes)))
      in
      let sane e =
        e.node >= 0 && e.segment_id >= 0 && e.slots > 0
        && e.slots land (e.slots - 1) = 0
      in
      if total entries && List.for_all sane entries then Some { epoch; entries }
      else None
    end
  end
