(* The distributed file service's server.

   The server exports its cache areas (attributes, name-lookup results,
   symlink targets, directory contents, file blocks) plus a statfs
   hint region and a Hybrid-1 request segment.  DX clerks read and
   write the caches directly with remote memory operations — the server
   CPU is involved only in emulating those accesses.  Hybrid-1 requests
   arrive as writes-with-notification; a service procedure then runs and
   remote-writes the result into the requesting clerk's reply segment. *)

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  clerk : Names.Clerk.t; (* name-service clerk on the server machine *)
  store : File_store.t;
  space : Cluster.Address_space.t;
  attr_cache : Slot_cache.t;
  name_cache : Slot_cache.t;
  link_cache : Slot_cache.t;
  dir_cache : Slot_cache.t;
  file_cache : Slot_cache.t;
  push_targets : (int, Rmem.Descriptor.t) Hashtbl.t;
  mutable scratch : bytes;
      (* where an attribute, a name entry or a directory listing is
         packed on its way into a cache slot: a name entry's size, grown
         to the widest listing *)
}

let costs t = Cluster.Node.costs t.node
let cpu t = Cluster.Node.cpu t.node

let name_key name = Names.Record.fnv_hash name

(* The error code a failed file-store call answers with. *)
let errno = function
  | File_store.No_such_file _ -> 2
  | File_store.Not_a_directory _ -> 20
  | File_store.Not_a_symlink _ | File_store.Not_a_file _ -> 22
  | File_store.Name_exists _ -> 17
  | File_store.Not_empty _ -> 66
  | exn -> raise exn

(* Execute an operation against the local file store. *)
let execute store op =
  try
    match op with
    | Nfs_ops.Null -> Nfs_ops.R_null
    | Nfs_ops.Get_attr { fh } -> Nfs_ops.R_attr (File_store.getattr store fh)
    | Nfs_ops.Lookup { dir; name } ->
        let fh = File_store.lookup store ~dir ~name in
        Nfs_ops.R_lookup { fh; attr = File_store.getattr store fh }
    | Nfs_ops.Read_link { fh } -> Nfs_ops.R_link (File_store.readlink store fh)
    | Nfs_ops.Read { fh; off; count } ->
        Nfs_ops.R_data (File_store.read store fh ~off ~count)
    | Nfs_ops.Read_dir { fh; count } ->
        let entries = File_store.readdir store fh in
        let count = Stdlib.min count (File_store.entries_length entries) in
        let out = Bytes.create count in
        File_store.entries_into entries out ~pos:0 ~len:count;
        Nfs_ops.R_entries out
    | Nfs_ops.Statfs -> Nfs_ops.R_statfs (File_store.statfs store)
    | Nfs_ops.Write { fh; off; data } ->
        File_store.write store fh ~off data;
        Nfs_ops.R_write (File_store.getattr store fh)
    | Nfs_ops.Set_attr { fh; mode; size } ->
        File_store.set_attr store fh ~mode ~size ();
        Nfs_ops.R_attr (File_store.getattr store fh)
    | Nfs_ops.Create { dir; name } ->
        let fh = File_store.create_file store ~dir ~name () in
        Nfs_ops.R_lookup { fh; attr = File_store.getattr store fh }
    | Nfs_ops.Mkdir { dir; name } ->
        let fh = File_store.mkdir store ~dir ~name () in
        Nfs_ops.R_lookup { fh; attr = File_store.getattr store fh }
    | Nfs_ops.Remove { dir; name } ->
        File_store.remove store ~dir ~name;
        Nfs_ops.R_null
    | Nfs_ops.Rmdir { dir; name } ->
        File_store.rmdir store ~dir ~name;
        Nfs_ops.R_null
    | Nfs_ops.Rename { from_dir; from_name; to_dir; to_name } ->
        File_store.rename store ~from_dir ~from_name ~to_dir ~to_name;
        Nfs_ops.R_null
  with exn -> Nfs_ops.R_error (errno exn)

(* ------------------------------------------------------------------ *)
(* Cache maintenance (server side, local memory operations).           *)

let publish_statfs t =
  let s = File_store.statfs t.store in
  let b = Bytes.make Layout.statfs_bytes '\000' in
  Bytes.set_int32_le b 0 1l (* valid *);
  Bytes.set_int32_le b 4 (Int32.of_int s.File_store.total_blocks);
  Bytes.set_int32_le b 8 (Int32.of_int s.File_store.free_blocks);
  Bytes.set_int32_le b 12 (Int32.of_int s.File_store.files);
  Bytes.set_int32_le b 16 (Int32.of_int s.File_store.block_size);
  Cluster.Address_space.write t.space ~addr:Layout.statfs_base b

(* Cache installs copy each byte once into its slot: from the store's
   blocks, or from [scratch], where the payload is packed first. *)
let cache_attr t fh =
  Nfs_ops.attr_into (File_store.getattr t.store fh) t.scratch ~pos:0;
  Slot_cache.install_from t.attr_cache ~key1:fh ~key2:0 t.scratch ~pos:0
    ~len:File_store.attr_bytes

let cache_name t ~dir ~name =
  let fh = File_store.lookup t.store ~dir ~name in
  Bytes.set_int32_le t.scratch 0 (Int32.of_int fh);
  Nfs_ops.attr_into (File_store.getattr t.store fh) t.scratch ~pos:4;
  Slot_cache.install_from t.name_cache ~key1:dir ~key2:(name_key name)
    t.scratch ~pos:0 ~len:(4 + File_store.attr_bytes)

let cache_link t fh =
  let target = File_store.readlink t.store fh in
  Slot_cache.install t.link_cache ~key1:fh ~key2:0
    (Bytes.of_string target)

let cache_dir t fh =
  let entries = File_store.readdir t.store fh in
  let total = File_store.entries_length entries in
  if total > Bytes.length t.scratch then t.scratch <- Bytes.create total;
  File_store.entries_into entries t.scratch ~pos:0 ~len:total;
  let chunk = Layout.dir_chunk_bytes in
  let rec go i =
    let off = i * chunk in
    if off < total || (total = 0 && i = 0) then begin
      let len = Stdlib.min chunk (total - off) in
      Slot_cache.install_from t.dir_cache ~key1:fh ~key2:i t.scratch ~pos:off
        ~len;
      go (i + 1)
    end
  in
  go 0

let cache_file_block t fh ~block =
  let off = block * File_store.block_bytes and count = File_store.block_bytes in
  Slot_cache.install_with t.file_cache ~key1:fh ~key2:block ~len:count
    (fun space ~addr -> File_store.read_to t.store fh ~off ~count space ~addr)

(* Walk the whole store and warm every cache area: the experiments'
   100%-server-cache-hit regime. *)
let warm_all_caches t =
  let rec walk dir =
    List.iter
      (fun (name, fh) ->
        cache_name t ~dir ~name;
        cache_attr t fh;
        match (File_store.getattr t.store fh).File_store.kind with
        | File_store.Regular ->
            let size = (File_store.getattr t.store fh).File_store.size in
            let blocks =
              Stdlib.max 1
                ((size + File_store.block_bytes - 1) / File_store.block_bytes)
            in
            for block = 0 to blocks - 1 do
              cache_file_block t fh ~block
            done
        | File_store.Symlink -> cache_link t fh
        | File_store.Directory ->
            cache_dir t fh;
            walk fh)
      (File_store.readdir t.store dir)
  in
  cache_attr t (File_store.root t.store);
  cache_dir t (File_store.root t.store);
  walk (File_store.root t.store);
  publish_statfs t

(* Eager push (§3.2): the server updates the local caches of subscribed
   clerks with one-way remote writes — no clerk is scheduled or woken,
   it simply finds fresher data on its next local lookup. *)
let enable_eager_push t ~client =
  let key = Atm.Addr.to_int client in
  if not (Hashtbl.mem t.push_targets key) then begin
    let desc =
      Names.Api.import ~hint:client t.clerk (Layout.lcache_name_for client)
    in
    Hashtbl.replace t.push_targets key desc
  end

let push_block t ~fh ~block =
  match Slot_cache.lookup_local t.file_cache ~key1:fh ~key2:block with
  | None -> ()
  | Some data ->
      let slot_off =
        Slot_cache.offset_of_key_cfg Layout.file_cache ~key1:fh ~key2:block
      in
      let header =
        Slot_cache.header ~key1:fh ~key2:block ~len:(Bytes.length data)
      in
      (* Push to subscribers in address order, not bucket order. *)
      Hashtbl.fold (fun addr desc acc -> (addr, desc) :: acc) t.push_targets []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.iter (fun (_, desc) ->
             (* Body first, header (with the valid flag) second. *)
             Rmem.Remote_memory.write t.rmem desc
               ~off:(slot_off + Slot_cache.header_bytes)
               data;
             Rmem.Remote_memory.write t.rmem desc ~off:slot_off header)

(* Apply clerk-pushed file blocks back to the store (write-back).  A
   pushed slot is newer than the store when its contents differ; applied
   blocks are then eagerly pushed to subscribed clerks.  A push cannot
   see its handle's kind, so a block pushed under a handle that names no
   regular file is dropped from the cache, unapplied. *)
let writeback t ~fh ~block =
  match Slot_cache.lookup_local t.file_cache ~key1:fh ~key2:block with
  | None -> ()
  | Some data -> (
      let off = block * File_store.block_bytes in
      match File_store.read t.store fh ~off ~count:(Bytes.length data) with
      | current ->
          if not (Bytes.equal current data) then begin
            File_store.write t.store fh ~off data;
            push_block t ~fh ~block
          end
      | exception (File_store.Not_a_file _ | File_store.No_such_file _) ->
          Slot_cache.invalidate t.file_cache ~key1:fh ~key2:block)

(* ------------------------------------------------------------------ *)
(* Hybrid-1 service.                                                   *)

(* Keep the exported cache areas coherent with namespace mutations the
   service procedures perform, so later DX probes never see stale
   metadata.  Only a mutation that succeeded changed anything. *)
let refresh_caches_for t op result =
  match (op, result) with
  | Nfs_ops.Set_attr { fh; _ }, Nfs_ops.R_attr _ -> cache_attr t fh
  | ( (Nfs_ops.Create { dir; name } | Nfs_ops.Mkdir { dir; name }),
      Nfs_ops.R_lookup { fh; _ } ) ->
      cache_name t ~dir ~name;
      cache_attr t fh;
      cache_attr t dir;
      cache_dir t dir;
      publish_statfs t
  | (Nfs_ops.Remove { dir; name } | Nfs_ops.Rmdir { dir; name }), Nfs_ops.R_null
    ->
      Slot_cache.invalidate t.name_cache ~key1:dir ~key2:(name_key name);
      cache_attr t dir;
      cache_dir t dir;
      publish_statfs t
  | Nfs_ops.Rename { from_dir; from_name; to_dir; to_name }, Nfs_ops.R_null ->
      Slot_cache.invalidate t.name_cache ~key1:from_dir
        ~key2:(name_key from_name);
      cache_name t ~dir:to_dir ~name:to_name;
      cache_dir t from_dir;
      cache_dir t to_dir
  | _ -> ()

(* The reply to [op], encoded once, at [pos] of the reply buffer [b];
   its length.  A Read's bytes go straight from the store's blocks into
   it, and a ReadDir's listing is packed into it only as far as
   [count]. *)
let reply t op b ~pos =
  match op with
  | Nfs_ops.Read { fh; off; count } -> (
      match File_store.read_length t.store fh ~off ~count with
      | count ->
          File_store.read_into t.store fh ~off ~count b
            ~pos:(pos + Nfs_ops.bulk_pos);
          Nfs_ops.bulk_header ~entries:false count b ~pos
      | exception exn -> Nfs_ops.result_into (Nfs_ops.R_error (errno exn)) b ~pos)
  | Nfs_ops.Read_dir { fh; count } -> (
      match File_store.readdir t.store fh with
      | entries ->
          let len = Stdlib.min count (File_store.entries_length entries) in
          File_store.entries_into entries b ~pos:(pos + Nfs_ops.bulk_pos) ~len;
          Nfs_ops.bulk_header ~entries:true len b ~pos
      | exception exn -> Nfs_ops.result_into (Nfs_ops.R_error (errno exn)) b ~pos)
  | _ ->
      let result = execute t.store op in
      refresh_caches_for t op result;
      Nfs_ops.result_into result b ~pos

(* A Write's reply: its data goes straight from the request slot into
   the store's blocks. *)
let write_reply t ~fh ~off ~len ~data b ~pos =
  Nfs_ops.result_into
    (match File_store.write_from t.store fh ~off t.space ~addr:data ~len with
    | () ->
        cache_attr t fh;
        Nfs_ops.R_write (File_store.getattr t.store fh)
    | exception exn -> Nfs_ops.R_error (errno exn))
    b ~pos

(* The request is decoded where it landed in its slot; once the service
   procedure's CPU is charged, its reply is encoded once, into a reply
   buffer the kernel sends and takes back. *)
let serve_hybrid_request t hy ticket arg =
  let request = Nfs_ops.request_at t.space ~addr:arg in
  Cluster.Cpu.use (cpu t) ~category:Cluster.Cpu.cat_procedure
    (match request with
    | Nfs_ops.Op op -> Nfs_ops.procedure_cost (costs t) op
    | Nfs_ops.Write_at { len; _ } -> Nfs_ops.write_cost (costs t) len);
  let b = Rmem.Hybrid.buffer hy and pos = Rmem.Hybrid.payload_pos in
  let len =
    match request with
    | Nfs_ops.Op op -> reply t op b ~pos
    | Nfs_ops.Write_at { fh; off; len; data } ->
        write_reply t ~fh ~off ~len ~data b ~pos
  in
  Rmem.Hybrid.reply hy ticket b ~len

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let create ~rmem ~clerk ~store () =
  let node = Rmem.Remote_memory.node rmem in
  let space = Cluster.Node.new_address_space node in
  let cache base config = Slot_cache.create ~space ~base config in
  let rights = Rmem.Rights.make ~read:true ~write:true ~cas:true () in
  let export ~base ~len ~name ?policy () =
    ignore
      (Names.Api.export clerk ~space ~base ~len ~rights ?policy ~name ()
        : Rmem.Segment.t)
  in
  export ~base:Layout.statfs_base ~len:Layout.statfs_bytes
    ~name:Layout.statfs_name ();
  export ~base:Layout.attr_base
    ~len:(Slot_cache.segment_bytes Layout.attr_cache)
    ~name:Layout.attr_name ();
  export ~base:Layout.name_base
    ~len:(Slot_cache.segment_bytes Layout.name_cache)
    ~name:Layout.name_name ();
  export ~base:Layout.link_base
    ~len:(Slot_cache.segment_bytes Layout.link_cache)
    ~name:Layout.link_name ();
  export ~base:Layout.dir_base
    ~len:(Slot_cache.segment_bytes Layout.dir_cache)
    ~name:Layout.dir_name ();
  export ~base:Layout.file_base
    ~len:(Slot_cache.segment_bytes Layout.file_cache)
    ~name:Layout.file_name ();
  let request_segment =
    Names.Api.export clerk ~space ~base:Layout.request_base
      ~len:Layout.request_bytes ~rights:Rmem.Rights.write_only
      ~policy:Rmem.Segment.Conditional ~name:Layout.request_name ()
  in
  let t =
    {
      rmem;
      node;
      clerk;
      store;
      space;
      attr_cache = cache Layout.attr_base Layout.attr_cache;
      name_cache = cache Layout.name_base Layout.name_cache;
      link_cache = cache Layout.link_base Layout.link_cache;
      dir_cache = cache Layout.dir_base Layout.dir_cache;
      file_cache = cache Layout.file_base Layout.file_cache;
      push_targets = Hashtbl.create 8;
      scratch = Bytes.create (4 + File_store.attr_bytes);
    }
  in
  Rmem.Remote_memory.set_server_role rmem;
  let hy =
    Rmem.Hybrid.server rmem ~reply_bytes:Layout.reply_slot_bytes
      ~reply_to:(fun client ->
        Names.Api.import ~hint:client clerk (Layout.reply_name_for client))
  in
  Rmem.Hybrid.serve request_segment ~slot_bytes:Layout.request_slot_bytes
    (serve_hybrid_request t hy);
  t

let cached_block t ~fh ~block =
  Slot_cache.lookup_local t.file_cache ~key1:fh ~key2:block
