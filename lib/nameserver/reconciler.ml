(* The reconciler: the sharded name service's control plane.

   A single low-QPS process owns the shard map.  It keeps a local mirror
   of every shard's registry, applies registrations to the mirror, and
   pushes each affected 64-byte slot to the owning shard segment with
   plain remote WRITEs — so the data plane that clients read is only
   ever written by this one process, and lookups stay pure data
   transfer.

   Publication follows the fence-then-doorbell discipline the static
   verifier checks: migrated slots are written to the destination shard
   and FENCEd there (a different exporter than the map host), then the
   map body is written, then the epoch word goes out last with the
   notify bit — the doorbell.  Only after the new map is out are the
   migrated records tombstoned ([Record.flag_moved]) in the old owner,
   so at every instant a client holding either epoch finds every
   record somewhere its map points.  The tombstones are *forwarding*
   tombstones: they carry the destination shard's coordinates, so the
   stale readers heal in place rather than convoying at the map host.

   Registration is control transfer by design (the paper's §4.2
   fallback as the common case): an {!Rmem.Hybrid} call carrying an
   encoded record; the handler posts it to a pooled worker that applies
   the insert, fences the shard, and replies into the client clerk's
   scratch ring. *)

let request_segment_name = "shard.req"
let load_segment_name = "shard.load"

let request_slot_bytes = 80
(* [reply offset 4][record 64][pad 12], in the slot of the requester's
   network address. *)

let load_row_bytes = 8 + (4 * Shardmap.max_entries)
(* [epoch 4][pad 4][per-entry-index lookup counts]; rows from other
   epochs are ignored, so entry indices never cross epochs. *)

(* Reconciler address-space layout. *)
let request_base = 0
let load_base = 0x40000
let mirrors_base = 0x100000

type shard = {
  id : int;
  host : Clerk.t;
  segment : Rmem.Segment.t;
  desc : Rmem.Descriptor.t;  (* the reconciler's write handle *)
  mirror : Registry.t;
  mirror_base : int;
  lo : int;  (* a shard's low bound is fixed; splits and merges move [hi] *)
  mutable hi : int;
}

type t = {
  clerk : Clerk.t;
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  space : Cluster.Address_space.t;
  map_desc : Rmem.Descriptor.t;
  request_segment : Rmem.Segment.t;
  slots : int;
  shard_bytes : int;
  max_clients : int;
  hosts : Clerk.t array;
  mutable next_host : int;
  mutable next_shard : int;
  mutable spares : (Clerk.t * Rmem.Segment.t * Rmem.Descriptor.t) list;
      (* pre-exported shard segments, one pool entry per host: a split
         draws its destination segment here instead of paying the
         kernel export (page pinning busies the destination CPU for
         hundreds of microseconds) in the middle of live traffic *)
  mutable shards : shard list;  (* sorted by [lo] *)
  mutable epoch : int;
  policy : Rmem.Recovery.policy option;
  pace : Sim.Time.t option;
      (* spacing between background migration writes, so a split's slot
         pushes and tombstones interleave with foreground probes instead
         of monopolizing the destination host's ingress link *)
}

type verdict = Balanced | Split of int

let wr ?notify t desc ~off bytes =
  Rmem.Remote_memory.write ?policy:t.policy t.rmem desc ~off ?notify bytes

let fence t desc = Rmem.Remote_memory.fence ?policy:t.policy t.rmem desc

let sort_shards shards = List.sort (fun a b -> compare a.lo b.lo) shards
let paced t = match t.pace with Some d -> Sim.Proc.wait d | None -> ()

let entry_of_shard t s =
  {
    Shardmap.lo = s.lo;
    hi = s.hi;
    node = Atm.Addr.to_int (Cluster.Node.addr (Clerk.node s.host));
    segment_id = Rmem.Segment.id s.segment;
    generation = Rmem.Segment.generation s.segment;
    slots = t.slots;
  }

let map t =
  { Shardmap.epoch = t.epoch; entries = List.map (entry_of_shard t) t.shards }

(* Push one mirror slot (or just its flag word) to the owning shard
   segment: the mirror is the source of truth, the segment its replica. *)
let push_slot t s index =
  let off = index * Record.slot_bytes in
  let bytes =
    Cluster.Address_space.read t.space ~addr:(s.mirror_base + off)
      ~len:Record.slot_bytes
  in
  wr t s.desc ~off bytes

(* Tombstone a migrated slot with a forwarding image: the destination
   shard's coordinates ride in the moved slot's spare bytes, so a stale
   reader patches its map in place instead of refetching it. *)
let push_forward t s index fwd =
  wr t s.desc ~off:(index * Record.slot_bytes) (Record.encode_forward fwd)

(* Sum the per-entry-index lookup counts clients report for the current
   epoch; entry indices are positions in the sorted shard list. *)
let loads t =
  let sorted = t.shards in
  let n = List.length sorted in
  let acc = Array.make (max n 1) 0 in
  for c = 0 to t.max_clients - 1 do
    let row = load_base + (c * load_row_bytes) in
    let epoch = Cluster.Address_space.read_word t.space ~addr:row in
    if epoch = t.epoch then
      for i = 0 to n - 1 do
        acc.(i) <-
          acc.(i)
          + Cluster.Address_space.read_word t.space ~addr:(row + 8 + (4 * i))
      done
  done;
  List.mapi (fun i s -> (s, acc.(i))) sorted

(* [h]'s index in [t.hosts]: every shard is made on one of them. *)
let host_index t h =
  let addr = Atm.Addr.to_int (Cluster.Node.addr (Clerk.node h)) in
  let rec go i =
    if i >= Array.length t.hosts then invalid_arg "Reconciler: a shard on no host"
    else if Atm.Addr.to_int (Cluster.Node.addr (Clerk.node t.hosts.(i))) = addr
    then i
    else go (i + 1)
  in
  go 0

(* Destination choice for a new shard: the least-loaded host — by the
   clients' reported lookup counts summed per host, then by hosted
   shard count, then round robin — so a split actually sheds the hot
   host's load instead of handing the new shard straight back to it. *)
let pick_host t =
  let nh = Array.length t.hosts in
  let shards_on = Array.make nh 0 in
  let load_on = Array.make nh 0 in
  List.iter
    (fun s ->
      let i = host_index t s.host in
      shards_on.(i) <- shards_on.(i) + 1)
    t.shards;
  List.iter
    (fun (s, l) ->
      let i = host_index t s.host in
      load_on.(i) <- load_on.(i) + l)
    (loads t);
  let best = ref (t.next_host mod nh) in
  for k = 1 to nh - 1 do
    let i = (t.next_host + k) mod nh in
    if (load_on.(i), shards_on.(i)) < (load_on.(!best), shards_on.(!best)) then
      best := i
  done;
  t.next_host <- !best + 1;
  t.hosts.(!best)

(* Export one shard-sized segment on [host] and import it at the
   reconciler.  This is the expensive part of growing the shard set:
   the kernel export pins the segment's pages, busying the host's CPU
   for hundreds of microseconds. *)
let export_shard_segment t host ~name =
  let host_space = Cluster.Node.new_address_space (Clerk.node host) in
  let segment =
    Api.export host ~space:host_space ~base:0 ~len:t.shard_bytes
      ~rights:Rmem.Rights.all ~name ()
  in
  let desc =
    Rmem.Remote_memory.import t.rmem
      ~remote:(Cluster.Node.addr (Clerk.node host))
      ~segment_id:(Rmem.Segment.id segment)
      ~generation:(Rmem.Segment.generation segment)
      ~size:t.shard_bytes ~rights:Rmem.Rights.all ()
  in
  (segment, desc)

let stock_spare t host =
  let spare = export_shard_segment t host ~name:"shard.reg.spare" in
  t.spares <- (host, fst spare, snd spare) :: t.spares

let take_spare t host =
  let addr h = Atm.Addr.to_int (Cluster.Node.addr (Clerk.node h)) in
  let rec go acc = function
    | [] -> None
    | (h, seg, desc) :: rest when addr h = addr host ->
        t.spares <- List.rev_append acc rest;
        Some (seg, desc)
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] t.spares

let create_shard t ~lo ~hi =
  let id = t.next_shard in
  if id >= Shardmap.max_entries then failwith "reconciler: shard limit reached";
  t.next_shard <- id + 1;
  let host = pick_host t in
  (* Prefer a pooled spare: a split must not stall the destination
     host's foreground probes behind a synchronous kernel export. *)
  let segment, desc =
    match take_spare t host with
    | Some sd -> sd
    | None ->
        export_shard_segment t host ~name:(Printf.sprintf "shard.reg.%d" id)
  in
  let mirror_base = mirrors_base + (id * t.shard_bytes) in
  let mirror = Registry.create ~space:t.space ~base:mirror_base ~slots:t.slots in
  { id; host; segment; desc; mirror; mirror_base; lo; hi }

(* Fence-then-doorbell: body from [body_off] first, the epoch word last
   with notification.  Callers fence migrated data at its (distinct)
   exporter before calling; the map host itself needs no fence between
   body and bell — the link is FIFO. *)
let publish t =
  t.epoch <- t.epoch + 1;
  let body = Shardmap.encode_body (map t) in
  (* One burst frame per policy-backed write: a multi-frame body would
     need every frame of the deposit AND the verify read-back to survive
     in a single attempt, which a lossy multi-hop fabric makes
     vanishingly rare.  Framed chunks recover independently. *)
  let costs = Cluster.Node.costs t.node in
  let chunk = costs.Cluster.Costs.burst_cells * Rmem.Wire.data_bytes_per_cell in
  let len = Bytes.length body in
  let pos = ref 0 in
  while !pos < len do
    let n = Stdlib.min chunk (len - !pos) in
    wr t t.map_desc ~off:(Shardmap.body_off + !pos) (Bytes.sub body !pos n);
    pos := !pos + n
  done;
  let bell = Bytes.create 4 in
  Bytes.set_int32_le bell 0 (Int32.of_int t.epoch);
  wr ~notify:true t t.map_desc ~off:0 bell

let shard_for t bucket =
  List.find_opt (fun s -> s.lo <= bucket && bucket <= s.hi) t.shards

let register t record =
  Cluster.Cpu.use (Cluster.Node.cpu t.node) ~category:"reconciler"
    (Cluster.Node.costs t.node).Cluster.Costs.hash_insert;
  let bucket = Shardmap.bucket_of_name record.Record.name in
  match shard_for t bucket with
  | None -> Error `Full (* unreachable: the map is total *)
  | Some s -> (
      match Registry.insert s.mirror record with
      | Error `Full -> Error `Full
      | Ok index ->
          push_slot t s index;
          fence t s.desc;
          Ok ())

(* Migrate every record of [src] whose bucket falls in [lo, hi] into
   [dst]: insert into the destination mirror, push the slots, fence the
   destination.  Tombstoning the source happens only after the caller
   publishes the new map. *)
let move_records t ~src ~dst ~lo ~hi =
  let moved = ref [] in
  Registry.iter src.mirror (fun _ record ->
      let bucket = Shardmap.bucket_of_name record.Record.name in
      if lo <= bucket && bucket <= hi then moved := record :: !moved);
  List.iter
    (fun record ->
      (match Registry.insert dst.mirror record with
      | Ok index -> push_slot t dst index
      | Error `Full -> failwith "reconciler: destination shard full");
      paced t)
    !moved;
  if !moved <> [] then fence t dst.desc;
  !moved

let retire t ~src ~dst moved =
  let fwd =
    {
      Record.fwd_epoch = t.epoch;
      fwd_lo = dst.lo;
      fwd_hi = dst.hi;
      fwd_node = Atm.Addr.to_int (Cluster.Node.addr (Clerk.node dst.host));
      fwd_segment_id = Rmem.Segment.id dst.segment;
      fwd_generation = Rmem.Segment.generation dst.segment;
      fwd_slots = t.slots;
    }
  in
  List.iter
    (fun record ->
      (match Registry.delete src.mirror record.Record.name with
      | Some index -> push_forward t src index fwd
      | None -> ());
      paced t)
    moved;
  if moved <> [] then fence t src.desc

let find_shard t id = List.find_opt (fun s -> s.id = id) t.shards

let split t id =
  match find_shard t id with
  | None -> None
  | Some s when s.hi <= s.lo -> None (* a single bucket cannot split *)
  | Some s ->
      let mid = (s.lo + s.hi) / 2 in
      let d = create_shard t ~lo:(mid + 1) ~hi:s.hi in
      let moved = move_records t ~src:s ~dst:d ~lo:d.lo ~hi:d.hi in
      s.hi <- mid;
      t.shards <- sort_shards (d :: t.shards);
      publish t;
      retire t ~src:s ~dst:d moved;
      (* Restock the consumed spare only after the migrated range's
         heal traffic has moved on — the export's page pinning would
         otherwise stall the very probes the split just redirected. *)
      stock_spare t d.host;
      Some d.id

let merge t =
  match t.shards with
  | [] | [ _ ] -> None
  | shards ->
      let rec pairs = function
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        | _ -> []
      in
      let a, b =
        List.fold_left
          (fun ((xa, xb) as best) ((ya, yb) as cand) ->
            if
              Registry.live ya.mirror + Registry.live yb.mirror
              < Registry.live xa.mirror + Registry.live xb.mirror
            then cand
            else best)
          (List.hd (pairs shards))
          (pairs shards)
      in
      ignore (move_records t ~src:b ~dst:a ~lo:b.lo ~hi:b.hi : Record.t list);
      a.hi <- b.hi;
      t.shards <- List.filter (fun s -> s.id <> b.id) t.shards;
      publish t;
      (* Revoking the absorbed segment makes every stale client
         descriptor fail cleanly; the map refetch heals them. *)
      Api.revoke b.host b.segment;
      Some (b.id, a.id)

let rebalance_once t =
  let ls = loads t in
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 ls in
  if total = 0 then Balanced
  else begin
    let n = List.length ls in
    let hot, hot_load =
      List.fold_left
        (fun ((_, bl) as best) ((_, l) as cand) ->
          if l > bl then cand else best)
        (List.hd ls) ls
    in
    (* Split when one shard draws at least twice its fair share. *)
    if hot_load * n >= 2 * total && hot.hi > hot.lo then
      match split t hot.id with Some id -> Split id | None -> Balanced
    else Balanced
  end

(* One registration, in a worker of its own: the insert, the slot
   push, the fence and the reply.  The reply is fire-and-forget: the
   scratch segment is write-only, so it cannot be read back or fenced.
   A lost reply is healed end to end — the requester times out and
   reissues the (idempotent) registration. *)
let register_request t ticket arg =
  Clerk.reply t.clerk ticket
    (match Record.decode_at t.space ~addr:arg with
    | None -> None
    | Some record -> (
        match register t record with
        | Ok () -> Some record
        | Error `Full -> None))

(* Exporter-side registration handler: bounded interrupt work only — it
   posts the request to a pooled worker, which starts at the instant a
   spawned one would, with no process created per request. *)
let serve_registrations t =
  let workers =
    Sim.Pool.create (Cluster.Node.engine t.node) ~name:"reconciler"
  in
  Rmem.Hybrid.serve t.request_segment ~slot_bytes:request_slot_bytes
    (Sim.Pool.post workers (register_request t))

let create ?(slots = Bootstrap.default_slots) ?(max_clients = 128) ?policy
    ?pace ~map_clerk ~hosts clerk =
  if Array.length hosts = 0 then invalid_arg "Reconciler.create: no hosts";
  let rmem = Clerk.rmem clerk in
  let node = Clerk.node clerk in
  let space = Cluster.Node.new_address_space node in
  let request_segment =
    Api.export clerk ~space ~base:request_base
      ~len:(max_clients * request_slot_bytes)
      ~rights:Rmem.Rights.write_only ~policy:Rmem.Segment.Conditional
      ~name:request_segment_name ()
  in
  let (_ : Rmem.Segment.t) =
    Api.export clerk ~space ~base:load_base
      ~len:(max_clients * load_row_bytes)
      ~rights:Rmem.Rights.write_only ~name:load_segment_name ()
  in
  let map_space = Cluster.Node.new_address_space (Clerk.node map_clerk) in
  let map_segment =
    Api.export map_clerk ~space:map_space ~base:0 ~len:Shardmap.segment_bytes
      ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
      ~name:Shardmap.map_name ()
  in
  let map_desc =
    Rmem.Remote_memory.import rmem
      ~remote:(Cluster.Node.addr (Clerk.node map_clerk))
      ~segment_id:(Rmem.Segment.id map_segment)
      ~generation:(Rmem.Segment.generation map_segment)
      ~size:Shardmap.segment_bytes ~rights:Rmem.Rights.all ()
  in
  let t =
    {
      clerk;
      rmem;
      node;
      space;
      map_desc;
      request_segment;
      slots;
      shard_bytes = Registry.segment_bytes ~slots;
      max_clients;
      hosts;
      next_host = 0;
      next_shard = 0;
      spares = [];
      shards = [];
      epoch = 0;
      policy;
      pace;
    }
  in
  (* The map host consumes epoch doorbells — the only control transfer
     on the publication path. *)
  Rmem.Notification.set_signal_handler
    (Rmem.Segment.notification map_segment)
    (Some (fun (_ : Rmem.Notification.record) -> ()));
  let s0 = create_shard t ~lo:0 ~hi:(Shardmap.buckets - 1) in
  t.shards <- [ s0 ];
  publish t;
  (* Stock one spare segment per host while nothing is in flight:
     a mid-campaign split draws from this pool, so the export's page
     pinning never lands on a host serving foreground probes. *)
  Array.iter (fun h -> stock_spare t h) t.hosts;
  t

let shard_id_of_bucket t bucket =
  Option.map (fun s -> s.id) (shard_for t bucket)

let epoch t = t.epoch
let shard_count t = List.length t.shards

let live t =
  List.fold_left (fun acc s -> acc + Registry.live s.mirror) 0 t.shards

let well_formed t =
  List.for_all (fun s -> Registry.well_formed s.mirror) t.shards
  && Shardmap.total (List.map (entry_of_shard t) t.shards)
