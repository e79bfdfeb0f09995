(** The distributed file service's server.

    Exports its cache areas (attributes, name-lookup results, symlink
    targets, directory contents, file blocks), a statfs hint region, and
    a Hybrid-1 request segment. DX clerks access the caches with pure
    data transfer; Hybrid-1 requests arrive as writes-with-notification
    and are answered by remote writes into the clerk's reply segment. *)

type t

val create :
  rmem:Rmem.Remote_memory.t ->
  clerk:Names.Clerk.t ->
  store:File_store.t ->
  unit ->
  t
(** Export all service segments (registered with the name service),
    switch the node's remote-memory accounting to server categories,
    and install the Hybrid-1 request handler. Run within a process. *)

val execute : File_store.t -> Nfs_ops.op -> Nfs_ops.result
(** Run one operation against a local store (shared by the Hybrid-1 and
    RPC service paths). Errors map to [R_error]. *)

(** {1 Cache maintenance (local memory operations)} *)

val warm_all_caches : t -> unit
(** Populate every cache area from the store — the experiments'
    100%-server-cache-hit regime. *)

val cache_attr : t -> int -> unit
val cache_name : t -> dir:int -> name:string -> unit
val cache_link : t -> int -> unit
val cache_dir : t -> int -> unit
val cache_file_block : t -> int -> block:int -> unit

val writeback : t -> fh:int -> block:int -> unit
(** Apply a clerk-pushed file block back to the store if it differs,
    then eagerly push it to subscribed clerks. A block pushed under a
    handle that names no regular file (a directory's, a symlink's, a
    removed file's) is dropped from the cache instead, unapplied. *)

val cached_block : t -> fh:int -> block:int -> bytes option
(** The payload of the file-cache slot holding [(fh, block)], if usable.
    Test-only: a warmed slot's bytes against the store, which a client sees
    only through a DX hit. *)

(** {1 Eager push (§3.2)} *)

val enable_eager_push : t -> client:Atm.Addr.t -> unit
(** Subscribe a clerk (created with [~export_local_cache:true]) to
    one-way pushes of updated file blocks into its local cache.
    Test-only: the paper's eager client-cache update (section 3.2), which no
    workload subscribes to. *)
