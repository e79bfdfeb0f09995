(* Well-known constants that let the name service bootstrap itself.

   Every clerk is the first exporter on its node and always exports the
   same three segments in the same order, so their ids *and* generation
   numbers are cluster-wide constants — this is what "certain well-known
   segment names have been reserved on each machine" amounts to. *)

let registry_segment_id = 0
let request_segment_id = 1
let scratch_segment_id = 2

let registry_generation = Rmem.Generation.of_int 1
let request_generation = Rmem.Generation.of_int 2
let scratch_generation = Rmem.Generation.of_int 3

let default_slots = 256
(* registry slots per clerk *)

let max_nodes = 32
(* bound on cluster size implied by the request table layout *)

let request_slot_bytes = 48
(* [reply offset 4][name 32][pad 12]; the 40 bytes written ride in a
   single ATM cell. *)

let scratch_slots = 16
let scratch_slot_bytes = 72
(* An Rmem.Hybrid reply slot: [flag 4][len 4][record 64]. *)

(* Clerk address-space layout. *)
let registry_base = 0
let request_base = 0x10000
let scratch_base = 0x20000
let probe_buffer_base = 0x30000
let probe_buffer_bytes = 4096
