(* The sharded clerk: client-side routing over the shard map.

   A lookup is pure data transfer end to end: fetch (and cache) the map
   segment with a remote READ, hash the name to a bucket, import the
   owning shard segment straight from the map entry's coordinates — the
   map IS the directory, no name probing — and walk the linear probe
   chain with slot-sized remote READs.

   Staleness heals by retry: a miss is only believed after a 4-byte
   re-read of the map's epoch word confirms the cached epoch is still
   current; a forwarding tombstone patches the cached map in place
   (never touching the map host); a bare tombstone or a stale/revoked
   shard descriptor forces a map refetch and another round — the PR 4
   revalidation chain, with the map (not a name lookup) as the
   revalidator.  Registration goes through the reconciler: an
   {!Rmem.Hybrid} call through the name clerk's scratch ring. *)

(* Client address-space layout. *)
let map_base = 0
let probe_base = 0x1000
let epoch_base = 0x2000

type t = {
  clerk : Clerk.t;
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  space : Cluster.Address_space.t;
  scratch : Rmem.Remote_memory.buffer; (* [space] up to the epoch word *)
  map_hint : Atm.Addr.t;
  reconciler_hint : Atm.Addr.t;
  mutable map_desc : Rmem.Descriptor.t option;
  mutable req_desc : Rmem.Descriptor.t option;
  mutable load_desc : Rmem.Descriptor.t option;
  mutable map : Shardmap.t option;
  shards : shard Registry.reader Sim.Int_table.t;  (* by [shard_key] *)
  mutable policy : Rmem.Recovery.policy option;
  counts : int array;  (* lookups per map-entry index since last report *)
  mutable stale_refetches : int;
  mutable forward_patches : int;
  mutable refreshes : (int * Sim.Time.t) list;  (* newest first *)
  stats : Metrics.Account.t;
}

(* An imported shard segment, as its probe walk reads it. *)
and shard = { client : t; desc : Rmem.Descriptor.t }

let create ~map_hint ~reconciler_hint clerk =
  let node = Clerk.node clerk in
  let space = Cluster.Node.new_address_space node in
  {
    clerk;
    rmem = Clerk.rmem clerk;
    node;
    space;
    scratch = Rmem.Remote_memory.buffer ~space ~base:0 ~len:(epoch_base + 4);
    map_hint;
    reconciler_hint;
    map_desc = None;
    req_desc = None;
    load_desc = None;
    map = None;
    shards = Sim.Int_table.create 16;
    policy = None;
    counts = Array.make Shardmap.max_entries 0;
    stale_refetches = 0;
    forward_patches = 0;
    refreshes = [];
    stats = Metrics.Account.create ();
  }

let now t = Sim.Engine.now (Cluster.Node.engine t.node)

let rd t desc ~soff ~count ~doff =
  Rmem.Remote_memory.read_wait ?policy:t.policy t.rmem desc ~soff ~count
    ~dst:t.scratch ~doff ()

(* The well-known imports happen once per client; under the fault plane
   a lost probe frame surfaces as Timeout and the import is simply
   retried — same discipline as the campaign layer's [retrying]. *)
let rec importing ?(attempts = 12) f =
  match f () with
  | v -> v
  | exception (Rmem.Status.Timeout | Rmem.Status.Remote_error _)
    when attempts > 1 ->
      Sim.Proc.wait (Sim.Time.us 400);
      importing ~attempts:(attempts - 1) f

let map_descriptor t =
  match t.map_desc with
  | Some desc -> desc
  | None ->
      let desc =
        importing (fun () -> Api.import ~hint:t.map_hint t.clerk Shardmap.map_name)
      in
      t.map_desc <- Some desc;
      desc

(* Map remote READ, issued one burst frame at a time so each chunk
   recovers independently under loss — a single multi-frame READ would
   need every reply frame to survive in one attempt.  The first chunk
   carries the header, so the fetch reads exactly as many further
   chunks as the advertised entry count occupies: a small map (the
   common case) costs one READ, which keeps an epoch-change stampede
   of healing clients cheap at the map host.  A torn image (publish
   racing the fetch, or chunks straddling one) fails [Shardmap.decode]
   and is simply refetched — the epoch word travels last, so a
   decodable map is trustworthy. *)
let fetch_map ?(tries = 8) t =
  let desc = map_descriptor t in
  let chunk =
    (Cluster.Node.costs t.node).Cluster.Costs.burst_cells
    * Rmem.Wire.data_bytes_per_cell
  in
  let rec go tries =
    rd t desc ~soff:0 ~count:(Stdlib.min chunk Shardmap.segment_bytes)
      ~doff:map_base;
    let count = Cluster.Address_space.read_word t.space ~addr:(map_base + 4) in
    let needed =
      if count <= 0 || count > Shardmap.max_entries then Shardmap.segment_bytes
      else Shardmap.header_bytes + (count * Shardmap.entry_bytes)
    in
    let pos = ref chunk in
    while !pos < needed do
      let n = Stdlib.min chunk (Shardmap.segment_bytes - !pos) in
      rd t desc ~soff:!pos ~count:n ~doff:(map_base + !pos);
      pos := !pos + n
    done;
    Metrics.Account.add t.stats ~category:"map fetches" 1.;
    match
      Shardmap.decode
        (Cluster.Address_space.read t.space ~addr:map_base
           ~len:Shardmap.segment_bytes)
    with
    | Some m ->
        (match t.map with
        | Some old when old.Shardmap.epoch = m.Shardmap.epoch -> ()
        | _ -> t.refreshes <- (m.Shardmap.epoch, now t) :: t.refreshes);
        t.map <- Some m;
        m
    | None ->
        if tries <= 1 then raise Rmem.Status.Timeout
        else begin
          Sim.Proc.wait (Sim.Time.us 5);
          go (tries - 1)
        end
  in
  go tries

let remote_epoch t =
  rd t (map_descriptor t) ~soff:0 ~count:4 ~doff:epoch_base;
  Cluster.Address_space.read_word t.space ~addr:epoch_base

(* The map-as-revalidator: on a Stale_generation / Bad_segment failure
   refetch the map and refresh the descriptor with the generation the
   current epoch advertises — the shard-layer analogue of
   {!Api.revalidator}. *)
let revalidate t desc =
  match fetch_map t with
  | m -> (
      match
        List.find_opt
          (fun e ->
            e.Shardmap.node = Atm.Addr.to_int (Rmem.Descriptor.remote desc)
            && e.Shardmap.segment_id = Rmem.Descriptor.segment_id desc)
          m.Shardmap.entries
      with
      | Some e ->
          Rmem.Descriptor.refresh desc ~generation:e.Shardmap.generation;
          true
      | None -> false (* the shard is gone (merged away): give up *))
  | exception (Rmem.Status.Timeout | Rmem.Status.Remote_error _) -> true

let set_recovery t policy =
  t.policy <-
    Option.map
      (fun p -> Rmem.Recovery.with_revalidate p (fun d -> revalidate t d))
      policy

(* One key per shard segment: a decoded node address and segment id
   both lie in [0, 2^31), so keys differ and none is [min_int]. *)
let shard_key e = (e.Shardmap.node lsl 31) lor e.Shardmap.segment_id

(* The probe walk's slot READ: under the registry's slot rule, a hit is
   the record; absence with a tombstone on the chain is inconclusive —
   the record may have migrated and the map be stale — and the first
   decodable forward along the chain names where. *)
let shard_slot { client = t; desc } soff =
  rd t desc ~soff ~count:Record.slot_bytes ~doff:probe_base;
  Metrics.Account.add t.stats ~category:"remote probes" 1.;
  probe_base

(* The entry's shard, imported again when the map advertises another
   generation. *)
let shard_reader t e =
  let key = shard_key e in
  match Sim.Int_table.find t.shards key with
  | r
    when Rmem.Generation.equal
           (Rmem.Descriptor.generation (Registry.env r).desc)
           e.Shardmap.generation ->
      r
  | _ | (exception Not_found) ->
      let desc =
        Rmem.Remote_memory.import t.rmem
          ~remote:(Atm.Addr.of_int e.Shardmap.node)
          ~segment_id:e.Shardmap.segment_id ~generation:e.Shardmap.generation
          ~size:(e.Shardmap.slots * Record.slot_bytes)
          ~rights:Rmem.Rights.read_only ()
      in
      let r = Registry.reader t.space ~slot:shard_slot { client = t; desc } in
      Sim.Int_table.replace t.shards key r;
      r

(* Heal from a forwarding tombstone without touching the map host:
   carve the destination shard's bucket range out of the cached entries,
   insert the forwarded entry, and adopt its epoch.  Only a forward
   newer than the cached map can patch it; a stale or range-breaking
   forward returns [false] and the caller falls back to a refetch. *)
let patch_map t (f : Record.forward) =
  match t.map with
  | Some m when f.Record.fwd_epoch > m.Shardmap.epoch ->
      let forwarded =
        {
          Shardmap.lo = f.Record.fwd_lo;
          hi = f.Record.fwd_hi;
          node = f.Record.fwd_node;
          segment_id = f.Record.fwd_segment_id;
          generation = f.Record.fwd_generation;
          slots = f.Record.fwd_slots;
        }
      in
      let carved =
        List.concat_map
          (fun e ->
            if e.Shardmap.hi < forwarded.Shardmap.lo
               || e.Shardmap.lo > forwarded.Shardmap.hi
            then [ e ]
            else
              (* keep whatever of [e] sticks out either side *)
              (if e.Shardmap.lo < forwarded.Shardmap.lo then
                 [ { e with Shardmap.hi = forwarded.Shardmap.lo - 1 } ]
               else [])
              @
              if e.Shardmap.hi > forwarded.Shardmap.hi then
                [ { e with Shardmap.lo = forwarded.Shardmap.hi + 1 } ]
              else [])
          m.Shardmap.entries
      in
      let entries =
        List.sort
          (fun a b -> compare a.Shardmap.lo b.Shardmap.lo)
          (forwarded :: carved)
      in
      if List.length entries <= Shardmap.max_entries && Shardmap.total entries
      then begin
        t.map <- Some { Shardmap.epoch = f.Record.fwd_epoch; entries };
        t.forward_patches <- t.forward_patches + 1;
        t.refreshes <- (f.Record.fwd_epoch, now t) :: t.refreshes;
        Metrics.Account.add t.stats ~category:"forward patches" 1.;
        true
      end
      else false
  | _ -> false

(* One lookup round under the cached map (a fresh one if [fresh]);
   each stale round costs one of [rounds]. *)
let rec attempt t name bucket rounds ~fresh =
  let m = match t.map with Some m when not fresh -> m | _ -> fetch_map t in
  let ei = Shardmap.owner_index m bucket in
  if ei < 0 then raise (Clerk.Name_not_found name) (* decode guarantees total *)
  else begin
    let e = Shardmap.entry_at m ei in
    if ei < Array.length t.counts then t.counts.(ei) <- t.counts.(ei) + 1;
    match Registry.walk ~slots:e.Shardmap.slots (shard_reader t e) name with
    | Dds.Probe.Found { hit = record; _ } -> record
    | Dds.Probe.Absent { reusable = None; _ } ->
        (* Believe a miss only under a current map: one 4-byte READ of
           the epoch word distinguishes absent from stale. *)
        if remote_epoch t = m.Shardmap.epoch then
          raise (Clerk.Name_not_found name)
        else retry t name bucket rounds
    | Dds.Probe.Absent { reusable = Some _; note = fwd; _ } -> (
        (* Prefer healing in place from the forwarding tombstone — it
           keeps a post-rebalance stampede of stale clients off the map
           host entirely. *)
        match fwd with
        | Some f when patch_map t f ->
            if rounds <= 0 then raise (Clerk.Name_not_found name)
            else attempt t name bucket (rounds - 1) ~fresh:false
        | _ -> retry t name bucket rounds)
    | exception Rmem.Status.Remote_error _ ->
        (* Stale or revoked shard descriptor: drop it, heal by map
           refetch. *)
        Sim.Int_table.remove t.shards (shard_key e);
        retry t name bucket rounds
  end

and retry t name bucket rounds =
  if rounds <= 0 then raise (Clerk.Name_not_found name)
  else begin
    t.stale_refetches <- t.stale_refetches + 1;
    Metrics.Account.add t.stats ~category:"stale refetches" 1.;
    Sim.Proc.wait (Sim.Time.us 5);
    attempt t name bucket (rounds - 1) ~fresh:true
  end

let lookup t name =
  Metrics.Account.add t.stats ~category:"lookup" 1.;
  attempt t name (Shardmap.bucket_of_name name) 4 ~fresh:false

(* ------------------------------------------------------------------ *)
(* Control plane: registration and load reporting.                     *)

let control_import t name =
  importing (fun () -> Api.import ~hint:t.reconciler_hint t.clerk name)

let request_descriptor t =
  match t.req_desc with
  | Some desc -> desc
  | None ->
      let desc = control_import t Reconciler.request_segment_name in
      t.req_desc <- Some desc;
      desc

let load_descriptor t =
  match t.load_desc with
  | Some desc -> desc
  | None ->
      let desc = control_import t Reconciler.load_segment_name in
      t.load_desc <- Some desc;
      desc

(* A registration request, [[reply offset 4][record 64][pad]]. *)
let registration record b =
  Bytes.fill b 4 (Reconciler.request_slot_bytes - 4) '\000';
  Record.encode_into record b ~pos:4;
  Reconciler.request_slot_bytes

let register t record =
  Metrics.Account.add t.stats ~category:"register" 1.;
  let req = request_descriptor t in
  let rec go n =
    match
      Clerk.call t.clerk req ~slot_bytes:Reconciler.request_slot_bytes
        registration record
    with
    | Some _ -> ()
    | None -> failwith "shard clerk: registration refused (shard full)"
    | exception Rmem.Status.Timeout when n > 1 ->
        (* The request or the ack was lost; registration is idempotent,
           reissue. *)
        Metrics.Account.add t.stats ~category:"register retries" 1.;
        go (n - 1)
  in
  go 8

let report_load t =
  match t.map with
  | None -> ()
  | Some m ->
      let load = load_descriptor t in
      let row = Bytes.make Reconciler.load_row_bytes '\000' in
      Bytes.set_int32_le row 0 (Int32.of_int m.Shardmap.epoch);
      Array.iteri
        (fun i c -> Bytes.set_int32_le row (8 + (4 * i)) (Int32.of_int c))
        t.counts;
      Rmem.Remote_memory.write t.rmem load
        ~off:(Atm.Addr.to_int (Cluster.Node.addr t.node) * Reconciler.load_row_bytes)
        row;
      Array.fill t.counts 0 (Array.length t.counts) 0

let epoch t = match t.map with Some m -> m.Shardmap.epoch | None -> 0
let stale_refetches t = t.stale_refetches
let forward_patches t = t.forward_patches
let refreshes t = List.rev t.refreshes
let stats t = t.stats
