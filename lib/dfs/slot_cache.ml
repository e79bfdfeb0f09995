(* The cache organization shared by server and clerks (§5.1).

   Each cache area is a direct-mapped table of fixed-size slots living
   inside a segment, so a clerk can compute the exact slot offset of
   (key1, key2) in the *server's* cache and fetch it with one remote
   READ — the paper's "server clerks understand the organization of the
   server's data structures".

   A slot is [flag 4][key1 4][key2 4][len 4][payload ...].  The owner
   writes the body first and the flag word last; a reader validates the
   flag and compares the keys, which is the paper's miss-detection
   recipe ("a flag word ... the atomicity of remote access guarantees
   this; a comparison of the block number shows if there was a miss"). *)

let header_bytes = 16
let flag_invalid = 0
let flag_valid = 1

type config = { slots : int; payload_bytes : int }

type t = {
  space : Cluster.Address_space.t;
  base : int;
  config : config;
}

let slot_bytes config = header_bytes + config.payload_bytes

let segment_bytes config = config.slots * slot_bytes config

let create ~space ~base config =
  if config.slots <= 0 || config.slots land (config.slots - 1) <> 0 then
    invalid_arg "Slot_cache.create: slots must be a positive power of two";
  if config.payload_bytes <= 0 || config.payload_bytes land 3 <> 0 then
    invalid_arg "Slot_cache.create: payload must be a positive word multiple";
  { space; base; config }

let mix k1 k2 =
  (* A small integer hash both ends compute identically. *)
  let h = (k1 * 0x9E3779B1) lxor (k2 * 0x85EBCA77) in
  (h lxor (h lsr 13)) land max_int

(* Pure addressing from a config alone: what a clerk uses to compute
   slot offsets inside the *server's* cache segment. *)
let offset_of_key_cfg config ~key1 ~key2 =
  (mix key1 key2 land (config.slots - 1)) * slot_bytes config

let offset_of_key t ~key1 ~key2 = offset_of_key_cfg t.config ~key1 ~key2

(* Local (owner-side) operations. *)

(* An install writes the header with its flag invalid, then the
   payload, then the valid flag. *)
let open_slot t ~key1 ~key2 ~len =
  if len < 0 || len > t.config.payload_bytes then
    invalid_arg "Slot_cache.install: payload too large";
  let addr = t.base + offset_of_key t ~key1 ~key2 in
  Cluster.Address_space.write_word t.space ~addr flag_invalid;
  Cluster.Address_space.write_word t.space ~addr:(addr + 4) key1;
  Cluster.Address_space.write_word t.space ~addr:(addr + 8) key2;
  Cluster.Address_space.write_word t.space ~addr:(addr + 12) len;
  addr

let install_from t ~key1 ~key2 src ~pos ~len =
  let addr = open_slot t ~key1 ~key2 ~len in
  Cluster.Address_space.write_from t.space ~addr:(addr + header_bytes) src ~pos
    ~len;
  Cluster.Address_space.write_word t.space ~addr flag_valid

let install t ~key1 ~key2 payload =
  install_from t ~key1 ~key2 payload ~pos:0 ~len:(Bytes.length payload)

let install_with t ~key1 ~key2 ~len fill =
  let addr = open_slot t ~key1 ~key2 ~len in
  fill t.space ~addr:(addr + header_bytes);
  Cluster.Address_space.write_word t.space ~addr flag_valid

let invalidate t ~key1 ~key2 =
  let addr = t.base + offset_of_key t ~key1 ~key2 in
  Cluster.Address_space.write_word t.space ~addr flag_invalid

(* The one slot rule, applied where the slot image lies: the slot image
   at [addr] of [space] is usable when its flag word is valid, both keys
   match and its stored length is neither negative nor longer than the
   slot.  Four word reads, nothing copied or allocated.  The result is
   the usable payload length, at most [len] (the payload bytes a reader
   fetched), or [miss]. *)
let miss = -1

let payload_length config space ~addr ~key1 ~key2 ~len =
  if
    Cluster.Address_space.read_word space ~addr <> flag_valid
    || Cluster.Address_space.read_word space ~addr:(addr + 4) <> key1
    || Cluster.Address_space.read_word space ~addr:(addr + 8) <> key2
  then miss
  else
    let stored = Cluster.Address_space.read_word space ~addr:(addr + 12) in
    if stored < 0 || stored > config.payload_bytes then miss
    else Int.min stored len

let lookup_local t ~key1 ~key2 =
  let addr = t.base + offset_of_key t ~key1 ~key2 in
  let len =
    payload_length t.config t.space ~addr ~key1 ~key2
      ~len:t.config.payload_bytes
  in
  if len = miss then None
  else
    Some (Cluster.Address_space.read t.space ~addr:(addr + header_bytes) ~len)

(* The 16-byte header of a slot pushed into a remote cache, flag already
   valid.  The pusher writes the payload first and this header second,
   so a concurrent remote reader never sees a valid flag over torn
   contents. *)
let header ~key1 ~key2 ~len =
  let b = Bytes.create header_bytes in
  Bytes.set_int32_le b 0 (Int32.of_int flag_valid);
  Bytes.set_int32_le b 4 (Int32.of_int key1);
  Bytes.set_int32_le b 8 (Int32.of_int key2);
  Bytes.set_int32_le b 12 (Int32.of_int len);
  b
