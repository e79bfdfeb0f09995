(* The name-service clerk: one per machine, no central server.

   The service is logically centralized but physically a collection of
   clerks that communicate *only* through remote memory operations.
   Each clerk owns a registry segment holding its node's exports; an
   importer's clerk locates a remote name with remote READs that probe
   the exporter's registry directly (identical hash functions make the
   first probe usually suffice).  The clerk also implements the paper's
   control-transfer fallback: an {!Rmem.Hybrid} call whose reply ring is
   the clerk's well-known scratch segment. *)

type cached_import = {
  mutable record : Record.t;
  mutable descriptors : Rmem.Descriptor.t list;
}

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  space : Cluster.Address_space.t;
  registry : Registry.t;
  request_segment : Rmem.Segment.t;
  hy : Rmem.Hybrid.endpoint;  (* the scratch segment's reply ring *)
  replies : Rmem.Hybrid.server;  (* into callers' scratch rings *)
  mutable probe_timeout : Sim.Time.t option;
  (* bound each remote probe READ under the fault plane; None (the
     default) keeps the legacy unbounded wait and its exact schedule *)
  probe_buf : Rmem.Remote_memory.buffer;  (* every remote probe lands here *)
  import_cache : (string, cached_import) Hashtbl.t;
  remote_registries : remote Registry.reader Sim.Int_table.t;
  remote_requests : (int, Rmem.Descriptor.t) Hashtbl.t;
}

(* An imported registry, as its probe walk reads it. *)
and remote = { clerk : t; desc : Rmem.Descriptor.t }

exception Name_not_found of string

let costs t = Cluster.Node.costs t.node
let cpu t = Cluster.Node.cpu t.node

let charge t cost = Cluster.Cpu.use (cpu t) ~category:"name clerk" cost

let create rmem =
  let slots = Bootstrap.default_slots in
  let node = Rmem.Remote_memory.node rmem in
  let space = Cluster.Node.new_address_space node in
  let registry =
    Registry.create ~space ~base:Bootstrap.registry_base ~slots
  in
  let clerk_rights = Rmem.Rights.make ~read:true ~write:true () in
  let registry_segment =
    Rmem.Remote_memory.export rmem ~space ~base:Bootstrap.registry_base
      ~len:(Registry.segment_bytes ~slots)
      ~id:Bootstrap.registry_segment_id ~rights:clerk_rights
      ~name:"wk:registry" ()
  in
  let request_segment =
    Rmem.Remote_memory.export rmem ~space ~base:Bootstrap.request_base
      ~len:(Bootstrap.max_nodes * Bootstrap.request_slot_bytes)
      ~id:Bootstrap.request_segment_id ~rights:Rmem.Rights.write_only
      ~policy:Rmem.Segment.Conditional ~name:"wk:request" ()
  in
  let scratch_segment =
    Rmem.Remote_memory.export rmem ~space ~base:Bootstrap.scratch_base
      ~len:(Bootstrap.scratch_slots * Bootstrap.scratch_slot_bytes)
      ~id:Bootstrap.scratch_segment_id ~rights:Rmem.Rights.write_only
      ~name:"wk:scratch" ()
  in
  (* The well-known generation contract: the clerk must be the node's
     first exporter. *)
  assert (
    Rmem.Generation.equal
      (Rmem.Segment.generation registry_segment)
      Bootstrap.registry_generation);
  assert (
    Rmem.Generation.equal
      (Rmem.Segment.generation scratch_segment)
      Bootstrap.scratch_generation);
  let t =
    {
      rmem;
      node;
      space;
      registry;
      request_segment;
      hy =
        Rmem.Hybrid.endpoint rmem ~space ~base:Bootstrap.scratch_base
          ~slots:Bootstrap.scratch_slots ~reply_bytes:Bootstrap.scratch_slot_bytes
          ~timeout:(Sim.Time.ms 50);
      replies =
        Rmem.Hybrid.server rmem ~reply_bytes:Bootstrap.scratch_slot_bytes
          ~reply_to:(fun remote ->
            (* The exporter grants write-only; claiming read locally would
               make policied writes attempt a verify read-back the remote
               rejects.  A lost reply heals by the requester's reissue. *)
            Rmem.Remote_memory.import rmem ~remote
              ~segment_id:Bootstrap.scratch_segment_id
              ~generation:Bootstrap.scratch_generation
              ~size:(Bootstrap.scratch_slots * Bootstrap.scratch_slot_bytes)
              ~rights:Rmem.Rights.write_only ());
      probe_timeout = None;
      probe_buf =
        Rmem.Remote_memory.buffer ~space ~base:Bootstrap.probe_buffer_base
          ~len:Bootstrap.probe_buffer_bytes;
      import_cache = Hashtbl.create 64;
      remote_registries = Sim.Int_table.create 8;
      remote_requests = Hashtbl.create 8;
    }
  in
  t

let node t = t.node
let rmem t = t.rmem
let registry t = t.registry
let set_probe_timeout t timeout = t.probe_timeout <- timeout

(* ------------------------------------------------------------------ *)
(* Lazy import of other clerks' well-known segments.                   *)

(* Walk a name's chain in a remote registry, one slot READ into the
   probe buffer per probe, each charged as a hash lookup. *)
let probe_slot { clerk = t; desc } soff =
  Rmem.Remote_memory.read_wait ?timeout:t.probe_timeout t.rmem desc ~soff
    ~count:Record.slot_bytes ~dst:t.probe_buf ~doff:0 ();
  charge t (costs t).Cluster.Costs.hash_lookup;
  Bootstrap.probe_buffer_base

(* [remote]'s registry, imported on first use, with its reader. *)
let registry_reader t ~remote =
  let key = Atm.Addr.to_int remote in
  match Sim.Int_table.find t.remote_registries key with
  | r -> r
  | exception Not_found ->
      let desc =
        Rmem.Remote_memory.import t.rmem ~remote
          ~segment_id:Bootstrap.registry_segment_id
          ~generation:Bootstrap.registry_generation
          ~size:(Registry.segment_bytes ~slots:(Registry.slots t.registry))
          ~rights:(Rmem.Rights.make ~read:true ~write:true ())
          ()
      in
      let r = Registry.reader t.space ~slot:probe_slot { clerk = t; desc } in
      Sim.Int_table.replace t.remote_registries key r;
      r

let request_descriptor t ~remote =
  let key = Atm.Addr.to_int remote in
  match Hashtbl.find_opt t.remote_requests key with
  | Some desc -> desc
  | None ->
      let desc =
        Rmem.Remote_memory.import t.rmem ~remote
          ~segment_id:Bootstrap.request_segment_id
          ~generation:Bootstrap.request_generation
          ~size:(Bootstrap.max_nodes * Bootstrap.request_slot_bytes)
          ~rights:(Rmem.Rights.make ~read:true ~write:true ())
          ()
      in
      Hashtbl.replace t.remote_requests key desc;
      desc

(* ------------------------------------------------------------------ *)
(* Local service procedures (reached by local RPC from the kernel).    *)

let add_name t record =
  charge t (costs t).Cluster.Costs.hash_insert;
  match Registry.insert t.registry record with
  | Ok (_ : int) -> ()
  | Error `Full -> failwith "name clerk: registry full"

let delete_name t name =
  charge t (costs t).Cluster.Costs.hash_delete;
  Hashtbl.remove t.import_cache name;
  ignore (Registry.delete t.registry name : int option)

let cache_record t record =
  match Hashtbl.find_opt t.import_cache record.Record.name with
  | Some entry ->
      (* Keep the registered descriptors: refresh must still be able to
         mark them stale later. *)
      entry.record <- record
  | None ->
      Hashtbl.replace t.import_cache record.Record.name
        { record; descriptors = [] }

let register_descriptor t ~name desc =
  match Hashtbl.find_opt t.import_cache name with
  | Some entry -> entry.descriptors <- desc :: entry.descriptors
  | None -> ()

let remote_walk t r name =
  Registry.walk ~slots:(Registry.slots t.registry) r name

(* Control transfer through the scratch ring, shared by this clerk's
   lookups and the sharding layer's registrations: a reply carries a
   record, or nothing when the name is absent or the request refused. *)
let record_reply space ~addr ~len =
  if len = 0 then None else Record.decode_at space ~addr

let call t desc ~slot_bytes encode arg =
  Rmem.Hybrid.call t.hy desc ~slot_bytes encode arg record_reply

let reply t ticket record =
  let b = Rmem.Hybrid.buffer t.replies in
  let len =
    match record with
    | Some record ->
        Record.encode_into record b ~pos:Rmem.Hybrid.payload_pos;
        Record.slot_bytes
    | None -> 0
  in
  Rmem.Hybrid.reply t.replies ticket b ~len

(* A LOOKUPNAME request, [[reply offset 4][name 32][pad 4]]. *)
let name_request name b =
  Bytes.fill b 4 36 '\000';
  Bytes.blit_string name 0 b 4 (String.length name);
  40

(* LOOKUPNAME by control transfer, the paper's alternative to probing:
   the name, [[reply offset 4][name 32][pad 4]], to the exporter clerk's
   request segment.  It bypasses the cache and reads no registry. *)
let lookup_by_control_transfer t ~remote name =
  match
    call t (request_descriptor t ~remote)
      ~slot_bytes:Bootstrap.request_slot_bytes name_request name
  with
  | None -> raise (Name_not_found name)
  | Some record ->
      cache_record t record;
      record

(* The exporter side: the name read where it landed, answered from the
   registry. *)
let serve_lookup_requests t =
  Rmem.Hybrid.serve t.request_segment ~slot_bytes:Bootstrap.request_slot_bytes
    (fun ticket arg ->
      let raw_name = Cluster.Address_space.read t.space ~addr:arg ~len:32 in
      let name =
        Bytes.sub_string raw_name 0
          (Option.value (Bytes.index_opt raw_name '\000') ~default:32)
      in
      charge t (costs t).Cluster.Costs.hash_lookup;
      reply t ticket (Option.map fst (Registry.lookup t.registry name)))

(* ------------------------------------------------------------------ *)
(* Lookup: the LOOKUPNAME service procedure.                           *)

let lookup ?(force = false) ?hint t name =
  let cached =
    if force then None
    else
      match Hashtbl.find_opt t.import_cache name with
      | Some entry -> Some entry.record
      | None -> (
          (* The name may be a local export. *)
          match Registry.lookup t.registry name with
          | Some (record, _) -> Some record
          | None -> None)
  in
  match cached with
  | Some record ->
      (* A hit pays the full retrieve-and-copy; a miss only the cheaper
         absence check below. *)
      charge t (costs t).Cluster.Costs.hash_lookup;
      record
  | None -> (
      if not force then charge t (costs t).Cluster.Costs.hash_miss;
      match hint with
      | None -> raise (Name_not_found name)
      | Some remote -> (
          match remote_walk t (registry_reader t ~remote) name with
          | Dds.Probe.Found { hit = record; _ } ->
              cache_record t record;
              record
          | Dds.Probe.Absent _ -> raise (Name_not_found name)))

(* ------------------------------------------------------------------ *)
(* Cache refresh.                                                      *)

let refresh_once t =
  (* Probe in name order: the import cache's bucket order depends on the
     hash seed, and the probes' order is visible on the wire. *)
  let entries =
    Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) t.import_cache []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, entry) ->
      let remote = Atm.Addr.of_int entry.record.Record.node in
      let still_valid =
        match remote_walk t (registry_reader t ~remote) name with
        | Dds.Probe.Found { hit = record; _ } ->
            Rmem.Generation.equal record.Record.generation
              entry.record.Record.generation
        | Dds.Probe.Absent _ -> false
        (* A probe that timed out proves nothing either way: the name
           stays cached until a later pass reaches its home. *)
        | exception Rmem.Status.Timeout -> true
      in
      if not still_valid then begin
        List.iter Rmem.Descriptor.mark_stale entry.descriptors;
        Hashtbl.remove t.import_cache name
      end)
    entries

(* After a crash/restart re-exported this node's segments under fresh
   generations, the registry still advertises the old ones.  Rewrite
   each affected record in place so remote lookups (and the recovery
   layer's forced re-imports) obtain the new generation — the paper's
   re-export-re-inserts recovery step, done wholesale. *)
let reannounce t =
  List.iter
    (fun segment ->
      match Registry.lookup t.registry (Rmem.Segment.name segment) with
      | None -> ()
      | Some (record, _)
        when record.Record.node = Atm.Addr.to_int (Cluster.Node.addr t.node)
             && record.Record.segment_id = Rmem.Segment.id segment ->
          if
            not
              (Rmem.Generation.equal record.Record.generation
                 (Rmem.Segment.generation segment))
          then begin
            charge t (costs t).Cluster.Costs.hash_insert;
            match
              Registry.insert t.registry
                {
                  record with
                  Record.generation = Rmem.Segment.generation segment;
                }
            with
            | Ok (_ : int) -> ()
            | Error `Full -> failwith "name clerk: registry full"
          end
      | Some _ -> ())
    (Rmem.Remote_memory.exports t.rmem)

let start_refresh_daemon t ~period =
  Cluster.Node.spawn t.node (fun () ->
      while true do
        Sim.Proc.wait period;
        refresh_once t
      done)
