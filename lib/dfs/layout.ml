(* Cache geometry and segment names shared by the server and its clerks.

   Both sides must agree exactly (same configs, same hash), because DX
   clerks compute server-side slot offsets locally. *)

let attr_cache = { Slot_cache.slots = 8192; payload_bytes = File_store.attr_bytes }

let name_cache = { Slot_cache.slots = 8192; payload_bytes = 4 + File_store.attr_bytes }
(* payload: [fh 4][fattr 68] *)

let link_cache = { Slot_cache.slots = 1024; payload_bytes = 64 }

let dir_cache = { Slot_cache.slots = 1024; payload_bytes = 4096 }
(* key2 is the chunk index within the directory listing *)

let file_cache = { Slot_cache.slots = 4096; payload_bytes = File_store.block_bytes }
(* key2 is the block number; pages behind unused slots are never touched,
   so a sparse table costs little memory *)

(* Server address-space layout. *)
let statfs_base = 0
let statfs_bytes = 64

let attr_base = 0x1000
let name_base = attr_base + Slot_cache.segment_bytes attr_cache
let link_base = name_base + Slot_cache.segment_bytes name_cache
let dir_base = link_base + Slot_cache.segment_bytes link_cache
let file_base = dir_base + Slot_cache.segment_bytes dir_cache
let request_base = file_base + Slot_cache.segment_bytes file_cache

let request_slot_bytes = 8320
(* [reply offset 4][encoded op <= 8K + overhead][slack] *)

let max_clients = 32
let request_bytes = max_clients * request_slot_bytes

let reply_slot_bytes = 8288
(* [flag 4][len 4][encoded result <= 8K + overhead]: an Rmem.Hybrid slot *)

(* Published segment names (registered with the name service). *)
let statfs_name = "dfs:stat"
let attr_name = "dfs:attr"
let name_name = "dfs:name"
let link_name = "dfs:link"
let dir_name = "dfs:dir"
let file_name = "dfs:file"
let request_name = "dfs:req"

let reply_name_for addr = Printf.sprintf "dfs:reply:%d" (Atm.Addr.to_int addr)

let lcache_name_for addr = Printf.sprintf "dfs:lcache:%d" (Atm.Addr.to_int addr)
(* a clerk's exported local file cache, the target of eager pushes *)

let dir_chunk_bytes = dir_cache.Slot_cache.payload_bytes
