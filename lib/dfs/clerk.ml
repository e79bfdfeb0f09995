(* The file service's server clerk, running on each client machine.

   Clients talk to the clerk through local RPC only; the clerk satisfies
   what it can from its local caches and otherwise goes to the server by
   one of three transfer schemes:

   - [Dx]   — pure data transfer: remote READs of the server's cache
              slots (whose offsets the clerk computes itself), remote
              WRITE pushes for file writes.  No server procedure runs.
   - [Hybrid1] — one remote WRITE of the request with notification,
              answered by remote WRITEs of the result (the paper's
              RPC-like comparison point).
   - [Rpc_baseline] — classic RPC through the {!Rpckit} stack.

   A DX miss in the server's cache transfers control (falls back to
   Hybrid-1), exactly as §5.2 prescribes. *)

type scheme = Dx | Hybrid1 | Rpc_baseline

let scheme_to_string = function
  | Dx -> "DX"
  | Hybrid1 -> "HY"
  | Rpc_baseline -> "RPC"

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  server : Atm.Addr.t;
  mutable scheme : scheme;
  space : Cluster.Address_space.t;
  (* local cache areas *)
  l_attr : Slot_cache.t;
  l_name : Slot_cache.t;
  l_link : Slot_cache.t;
  l_file : Slot_cache.t;
  (* imported server segments *)
  d_stat : Rmem.Descriptor.t;
  d_attr : Rmem.Descriptor.t;
  d_name : Rmem.Descriptor.t;
  d_link : Rmem.Descriptor.t;
  d_dir : Rmem.Descriptor.t;
  d_file : Rmem.Descriptor.t;
  d_req : Rmem.Descriptor.t;
  hy : Rmem.Hybrid.endpoint; (* one reply slot at [reply_base] *)
  probe : Rmem.Remote_memory.buffer; (* 16 KB at [probe_base]: DX reads land here *)
  rpc : Rpckit.Transport.t option;
  stats : Metrics.Account.t;
}

let reply_base = Layout.request_base
let probe_base = reply_base + Layout.reply_slot_bytes + 4096

let costs t = Cluster.Node.costs t.node
let cpu t = Cluster.Node.cpu t.node

let charge t cost = Cluster.Cpu.use (cpu t) ~category:"dfs clerk" cost

let create ?rpc ?(export_local_cache = false) ~names ~server () =
  let rmem = Names.Clerk.rmem names in
  let node = Rmem.Remote_memory.node rmem in
  let space = Cluster.Node.new_address_space node in
  let cache base config = Slot_cache.create ~space ~base config in
  let import name = Names.Api.import ~hint:server names name in
  let t =
    {
      rmem;
      node;
      server;
      scheme = Dx;
      space;
      l_attr = cache Layout.attr_base Layout.attr_cache;
      l_name = cache Layout.name_base Layout.name_cache;
      l_link = cache Layout.link_base Layout.link_cache;
      l_file = cache Layout.file_base Layout.file_cache;
      d_stat = import Layout.statfs_name;
      d_attr = import Layout.attr_name;
      d_name = import Layout.name_name;
      d_link = import Layout.link_name;
      d_dir = import Layout.dir_name;
      d_file = import Layout.file_name;
      d_req = import Layout.request_name;
      hy =
        Rmem.Hybrid.endpoint rmem ~space ~base:reply_base ~slots:1
          ~reply_bytes:Layout.reply_slot_bytes ~timeout:(Sim.Time.ms 100);
      probe = Rmem.Remote_memory.buffer ~space ~base:probe_base ~len:16384;
      rpc;
      stats = Metrics.Account.create ();
    }
  in
  (* Export the reply segment the server's Hybrid-1 path writes into. *)
  let (_ : Rmem.Segment.t) =
    Names.Api.export names ~space ~base:reply_base
      ~len:Layout.reply_slot_bytes
      ~rights:(Rmem.Rights.make ~write:true ())
      ~name:(Layout.reply_name_for (Cluster.Node.addr node))
      ()
  in
  (* Optionally export the local file cache so the server can eagerly
     push updated blocks into it (§3.2: "it is possible for the server
     to eagerly update data on its client-side clerk"). *)
  if export_local_cache then begin
    let (_ : Rmem.Segment.t) =
      Names.Api.export names ~space ~base:Layout.file_base
        ~len:(Slot_cache.segment_bytes Layout.file_cache)
        ~rights:(Rmem.Rights.make ~write:true ())
        ~name:(Layout.lcache_name_for (Cluster.Node.addr node))
        ()
    in
    ()
  end;
  t

let node t = t.node
let set_scheme t scheme = t.scheme <- scheme
let stats t = t.stats

let dx_read t desc ~soff ~count =
  Rmem.Remote_memory.read_wait t.rmem desc ~soff ~count ~dst:t.probe ~doff:0 ()

let dx_write t desc ~off data = Rmem.Remote_memory.write t.rmem desc ~off data

let name_key name = Names.Record.fnv_hash name

(* ------------------------------------------------------------------ *)
(* Hybrid-1: the request in one control transfer.                     *)

let result space ~addr ~len:_ = Nfs_ops.result_at space ~addr

let hybrid_fetch t op =
  Metrics.Account.add t.stats ~category:"hybrid requests" 1.;
  Rmem.Hybrid.call t.hy t.d_req ~slot_bytes:Layout.request_slot_bytes
    Nfs_ops.request_into op result

(* ------------------------------------------------------------------ *)
(* DX: pure data transfer against the server's cache slots.            *)

(* Fetch the head of a server cache slot into the probe buffer and
   validate it where it landed: the usable length of the [len] payload
   bytes we need, or [Slot_cache.miss].  The caller copies what it keeps
   from [payload_base], once. *)
let payload_base = probe_base + Slot_cache.header_bytes

let dx_fetch_slot t desc config ~key1 ~key2 ~len =
  let off = Slot_cache.offset_of_key_cfg config ~key1 ~key2 in
  dx_read t desc ~soff:off ~count:(Slot_cache.header_bytes + len);
  Metrics.Account.add t.stats ~category:"dx reads" 1.;
  Slot_cache.payload_length config t.space ~addr:probe_base ~key1 ~key2 ~len

let payload t ~off ~len =
  Cluster.Address_space.read t.space ~addr:(payload_base + off) ~len

exception Miss

(* Read's [count] bytes from [pos] on: one slot read per touched block,
   its span copied straight into [out], which the first block allocates
   once it hits, so a miss there allocates nothing.  Raises [Miss]. *)
let rec dx_read_blocks t ~fh ~off ~count out ~pos =
  if pos >= count then out
  else
    let abs = off + pos in
    let block = abs / File_store.block_bytes in
    let boff = abs mod File_store.block_bytes in
    let span = Int.min (count - pos) (File_store.block_bytes - boff) in
    if
      dx_fetch_slot t t.d_file Layout.file_cache ~key1:fh ~key2:block
        ~len:(boff + span)
      < boff + span
    then raise Miss
    else begin
      let out = if pos = 0 then Bytes.create count else out in
      Cluster.Address_space.read_into t.space ~addr:(payload_base + boff)
        ~len:span out ~pos;
      dx_read_blocks t ~fh ~off ~count out ~pos:(pos + span)
    end

(* ReadDir's listing from [chunk] (at [pos]) on: one slot read per 4 KB
   chunk, copied straight into the result.  A short chunk ends it, and
   so does a missing one after the first.  A listing that ends in its
   first chunk is copied at its own length, a longer one into [count]
   bytes, cut only if it ends early. *)
let rec dx_read_dir t ~fh ~count out ~chunk ~pos =
  if pos >= count then Some out
  else
    let want = Int.min Layout.dir_chunk_bytes (count - pos) in
    let usable =
      dx_fetch_slot t t.d_dir Layout.dir_cache ~key1:fh ~key2:chunk ~len:want
    in
    if usable = Slot_cache.miss then
      if chunk = 0 then None else Some (Bytes.sub out 0 pos)
    else if chunk = 0 && (usable < want || want = count) then
      Some (payload t ~off:0 ~len:usable)
    else begin
      let out = if chunk = 0 then Bytes.create count else out in
      Cluster.Address_space.read_into t.space ~addr:payload_base ~len:usable
        out ~pos;
      if usable < want then Some (Bytes.sub out 0 (pos + usable))
      else dx_read_dir t ~fh ~count out ~chunk:(chunk + 1) ~pos:(pos + usable)
    end

let synthesized_attr ~fh ~size =
  {
    File_store.inode = fh;
    kind = File_store.Regular;
    mode = 0o644;
    nlink = 1;
    uid = 0;
    gid = 0;
    size;
    atime = 0;
    mtime = 0;
    ctime = 0;
  }

let dx_fetch t op =
  Metrics.Account.add t.stats ~category:"dx ops" 1.;
  (* A couple of compares and a hash to locate the remote slot; the
     paper argues this is tens of nanoseconds-to-microseconds and
     neglects it; we charge a token microsecond. *)
  charge t (Sim.Time.us 1);
  let miss () =
    Metrics.Account.add t.stats ~category:"dx misses -> control" 1.;
    hybrid_fetch t op
  in
  match op with
  | Nfs_ops.Null ->
      (* Liveness probe: read a known word of the statfs area. *)
      dx_read t t.d_stat ~soff:0 ~count:4;
      Nfs_ops.R_null
  | Nfs_ops.Statfs ->
      dx_read t t.d_stat ~soff:0 ~count:20;
      let field i =
        Cluster.Address_space.read_word t.space ~addr:(probe_base + (i * 4))
      in
      if field 0 <> 1 then miss ()
      else
        Nfs_ops.R_statfs
          {
            File_store.total_blocks = field 1;
            free_blocks = field 2;
            files = field 3;
            block_size = field 4;
          }
  | Nfs_ops.Get_attr { fh } ->
      let len = File_store.attr_bytes in
      if dx_fetch_slot t t.d_attr Layout.attr_cache ~key1:fh ~key2:0 ~len < len
      then miss ()
      else Nfs_ops.R_attr (Nfs_ops.attr_at t.space ~addr:payload_base)
  | Nfs_ops.Lookup { dir; name } ->
      let len = File_store.attr_bytes in
      if
        dx_fetch_slot t t.d_name Layout.name_cache ~key1:dir
          ~key2:(name_key name) ~len:(4 + len)
        < 4 + len
      then miss ()
      else
        Nfs_ops.R_lookup
          {
            fh = Cluster.Address_space.read_word t.space ~addr:payload_base;
            attr = Nfs_ops.attr_at t.space ~addr:(payload_base + 4);
          }
  | Nfs_ops.Read_link { fh } ->
      let len =
        dx_fetch_slot t t.d_link Layout.link_cache ~key1:fh ~key2:0
          ~len:Layout.link_cache.Slot_cache.payload_bytes
      in
      if len = Slot_cache.miss then miss ()
      else Nfs_ops.R_link (Bytes.unsafe_to_string (payload t ~off:0 ~len))
  | Nfs_ops.Read { fh; off; count } -> (
      match dx_read_blocks t ~fh ~off ~count Bytes.empty ~pos:0 with
      | out -> Nfs_ops.R_data out
      | exception Miss -> miss ())
  | Nfs_ops.Read_dir { fh; count } -> (
      match dx_read_dir t ~fh ~count Bytes.empty ~chunk:0 ~pos:0 with
      | Some entries -> Nfs_ops.R_entries entries
      | None -> miss ())
  | Nfs_ops.Write { fh; off; data } ->
      let block = off / File_store.block_bytes in
      if off mod File_store.block_bytes <> 0
         || Bytes.length data > File_store.block_bytes
      then invalid_arg "Dfs clerk: unaligned write push";
      let slot_off =
        Slot_cache.offset_of_key_cfg Layout.file_cache ~key1:fh ~key2:block
      in
      (* Push the block into the server's file cache: body first, then
         the header with the valid flag. *)
      dx_write t t.d_file ~off:(slot_off + Slot_cache.header_bytes) data;
      dx_write t t.d_file ~off:slot_off
        (Slot_cache.header ~key1:fh ~key2:block ~len:(Bytes.length data));
      Metrics.Account.add t.stats ~category:"dx writes" 1.;
      Nfs_ops.R_write (synthesized_attr ~fh ~size:(off + Bytes.length data))
  | Nfs_ops.Set_attr _ | Nfs_ops.Create _ | Nfs_ops.Remove _
  | Nfs_ops.Rename _ | Nfs_ops.Mkdir _ | Nfs_ops.Rmdir _ ->
      (* Namespace and attribute mutations need the server's namespace
         procedures: control transfer by design (the paper's "Other"
         activity, 0.4% of the mix). *)
      Metrics.Account.add t.stats ~category:"dx mutations -> control" 1.;
      hybrid_fetch t op

(* ------------------------------------------------------------------ *)
(* RPC baseline.                                                       *)

let rpc_fetch t op =
  match t.rpc with
  | None -> failwith "Dfs clerk: no RPC transport configured"
  | Some transport ->
      Metrics.Account.add t.stats ~category:"rpc calls" 1.;
      let reply =
        Rpckit.Client.call transport ~dst:t.server ~prog:Rpc_codec.prog
          ~proc:(Rpc_codec.proc_of_op op) ~label:(Nfs_ops.label op)
          (Rpc_codec.marshal_op op)
      in
      Rpc_codec.unmarshal_result reply

(* ------------------------------------------------------------------ *)
(* The remote path, scheme-dispatched; and the full client path.       *)

let remote_fetch t op =
  (* The enclosing scope makes every meta-instruction the fetch issues a
     child span of one "DX:read"-style fetch span.  Its name is built
     only when a tracer is attached, and a match closes it, so an
     untraced fetch allocates neither the name nor a closure. *)
  let scope =
    if Obs.Trace.enabled () then
      Obs.Trace.scope_begin
        ~node:(Atm.Addr.to_int (Cluster.Node.addr t.node))
        ~name:
          (Printf.sprintf "%s:%s" (scheme_to_string t.scheme) (Nfs_ops.label op))
    else None
  in
  match
    match t.scheme with
    | Dx -> dx_fetch t op
    | Hybrid1 -> hybrid_fetch t op
    | Rpc_baseline -> rpc_fetch t op
  with
  | result ->
      Obs.Trace.scope_end scope;
      result
  | exception exn ->
      Obs.Trace.scope_end scope;
      raise exn

(* Local cache consultation. *)
let local_lookup t op =
  charge t (costs t).Cluster.Costs.hash_lookup;
  match op with
  | Nfs_ops.Get_attr { fh } ->
      Option.map
        (fun p -> Nfs_ops.R_attr (Nfs_ops.decode_attr p))
        (Slot_cache.lookup_local t.l_attr ~key1:fh ~key2:0)
  | Nfs_ops.Lookup { dir; name } ->
      Option.map
        (fun p ->
          Nfs_ops.R_lookup
            {
              fh = Int32.to_int (Bytes.get_int32_le p 0);
              attr = Nfs_ops.decode_attr (Bytes.sub p 4 File_store.attr_bytes);
            })
        (Slot_cache.lookup_local t.l_name ~key1:dir ~key2:(name_key name))
  | Nfs_ops.Read_link { fh } ->
      Option.map
        (fun p -> Nfs_ops.R_link (Bytes.to_string p))
        (Slot_cache.lookup_local t.l_link ~key1:fh ~key2:0)
  | Nfs_ops.Read { fh; off; count } ->
      let block = off / File_store.block_bytes in
      let boff = off mod File_store.block_bytes in
      Option.bind (Slot_cache.lookup_local t.l_file ~key1:fh ~key2:block)
        (fun p ->
          if Bytes.length p >= boff + count then
            Some (Nfs_ops.R_data (Bytes.sub p boff count))
          else None)
  | Nfs_ops.Null | Nfs_ops.Statfs | Nfs_ops.Read_dir _ | Nfs_ops.Write _
  | Nfs_ops.Set_attr _ | Nfs_ops.Create _ | Nfs_ops.Remove _ | Nfs_ops.Rename _ | Nfs_ops.Mkdir _
  | Nfs_ops.Rmdir _ ->
      None

let install_local t op result =
  match (op, result) with
  | Nfs_ops.Get_attr { fh }, Nfs_ops.R_attr a ->
      Slot_cache.install t.l_attr ~key1:fh ~key2:0 (Nfs_ops.encode_attr a)
  | Nfs_ops.Lookup { dir; name }, Nfs_ops.R_lookup { fh; attr } ->
      let p = Bytes.create (4 + File_store.attr_bytes) in
      Bytes.set_int32_le p 0 (Int32.of_int fh);
      Bytes.blit (Nfs_ops.encode_attr attr) 0 p 4 File_store.attr_bytes;
      Slot_cache.install t.l_name ~key1:dir ~key2:(name_key name) p
  | Nfs_ops.Read_link { fh }, Nfs_ops.R_link target ->
      Slot_cache.install t.l_link ~key1:fh ~key2:0 (Bytes.of_string target)
  | Nfs_ops.Read { fh; off; _ }, Nfs_ops.R_data data
    when off mod File_store.block_bytes = 0
         && Bytes.length data = File_store.block_bytes ->
      Slot_cache.install t.l_file ~key1:fh
        ~key2:(off / File_store.block_bytes)
        data
  | Nfs_ops.Write { fh; off; data }, Nfs_ops.R_write _
    when off mod File_store.block_bytes = 0
         && Bytes.length data = File_store.block_bytes ->
      Slot_cache.install t.l_file ~key1:fh
        ~key2:(off / File_store.block_bytes)
        data
  | Nfs_ops.Remove { dir; name }, _ | Nfs_ops.Rmdir { dir; name }, _ ->
      Slot_cache.invalidate t.l_name ~key1:dir ~key2:(name_key name)
  | Nfs_ops.Rename { from_dir; from_name; _ }, _ ->
      Slot_cache.invalidate t.l_name ~key1:from_dir ~key2:(name_key from_name)
  | Nfs_ops.Set_attr { fh; _ }, Nfs_ops.R_attr a ->
      Slot_cache.install t.l_attr ~key1:fh ~key2:0 (Nfs_ops.encode_attr a)
  | _ -> ()

(* The full client-visible operation: local RPC into the clerk, local
   caches, then the remote path on a miss. *)
let perform t op =
  Cluster.Lrpc.call t.node
    (fun () ->
      match local_lookup t op with
      | Some result ->
          Metrics.Account.add t.stats ~category:"local hits" 1.;
          result
      | None ->
          let result = remote_fetch t op in
          install_local t op result;
          result)
    ()
