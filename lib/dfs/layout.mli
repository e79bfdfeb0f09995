(** Cache geometry and segment names shared by the server and its
    clerks.

    Both sides must agree exactly (same configs, same hash), because DX
    clerks compute server-side slot offsets locally. *)

val attr_cache : Slot_cache.config
val name_cache : Slot_cache.config
val link_cache : Slot_cache.config

val dir_cache : Slot_cache.config
(** key2 is the chunk index within the directory listing. *)

val file_cache : Slot_cache.config
(** key2 is the block number. *)

(** Server address-space layout. *)

val statfs_base : int
val statfs_bytes : int
val attr_base : int
val name_base : int
val link_base : int
val dir_base : int
val file_base : int
val request_base : int

val request_slot_bytes : int
(** [reply offset 4][encoded op <= 8K + overhead][slack]. *)

val request_bytes : int

val reply_slot_bytes : int
(** [flag 4][len 4][encoded result <= 8K + overhead]: an {!Rmem.Hybrid}
    reply slot. *)

(** Published segment names (registered with the name service). *)

val statfs_name : string
val attr_name : string
val name_name : string
val link_name : string
val dir_name : string
val file_name : string
val request_name : string

val reply_name_for : Atm.Addr.t -> string

val lcache_name_for : Atm.Addr.t -> string
(** A clerk's exported local file cache, the target of eager pushes. *)

val dir_chunk_bytes : int
