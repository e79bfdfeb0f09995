(* The name-service clerk: one per machine, no central server.

   The service is logically centralized but physically a collection of
   clerks that communicate *only* through remote memory operations.
   Each clerk owns a registry segment holding its node's exports; an
   importer's clerk locates a remote name with remote READs that probe
   the exporter's registry directly (identical hash functions make the
   first probe usually suffice).  The clerk also implements the paper's
   control-transfer fallback: a remote WRITE of the lookup arguments
   with the notify bit set, answered by a remote WRITE of the result
   into the requester's scratch segment. *)

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
  mutable probe_timeout : Sim.Time.t option;
  (* bound each remote probe READ under the fault plane; None (the
     default) keeps the legacy unbounded wait and its exact schedule *)
  probe_buf : Rmem.Remote_memory.buffer;  (* every remote probe lands here *)
  import_cache : (string, cached_import) Hashtbl.t;
  remote_registries : remote Registry.reader Sim.Int_table.t;
  remote_requests : (int, Rmem.Descriptor.t) Hashtbl.t;
  remote_scratches : (int, Rmem.Descriptor.t) Hashtbl.t;
  mutable next_scratch_slot : int;
  stats : Metrics.Account.t;
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
      probe_timeout = None;
      probe_buf =
        Rmem.Remote_memory.buffer ~space ~base:Bootstrap.probe_buffer_base
          ~len:Bootstrap.probe_buffer_bytes;
      import_cache = Hashtbl.create 64;
      remote_registries = Sim.Int_table.create 8;
      remote_requests = Hashtbl.create 8;
      remote_scratches = Hashtbl.create 8;
      next_scratch_slot = 0;
      stats = Metrics.Account.create ~name:"name clerk" ();
    }
  in
  t

let node t = t.node
let rmem t = t.rmem
let registry t = t.registry
let stats t = t.stats
let set_probe_timeout t timeout = t.probe_timeout <- timeout

(* ------------------------------------------------------------------ *)
(* Lazy import of other clerks' well-known segments.                   *)

let well_known ?(rights = Rmem.Rights.make ~read:true ~write:true ()) t table
    ~remote ~segment_id ~generation ~size =
  let key = Atm.Addr.to_int remote in
  match Hashtbl.find_opt table key with
  | Some desc -> desc
  | None ->
      let desc =
        Rmem.Remote_memory.import t.rmem ~remote ~segment_id ~generation ~size
          ~rights ()
      in
      Hashtbl.replace table key desc;
      desc

(* Walk a name's chain in a remote registry, one slot READ into the
   probe buffer per probe, each charged as a hash lookup. *)
let probe_slot { clerk = t; desc } soff =
  Rmem.Remote_memory.read_wait ?timeout:t.probe_timeout t.rmem desc ~soff
    ~count:Record.slot_bytes ~dst:t.probe_buf ~doff:0 ();
  Metrics.Account.add t.stats ~category:"remote probes" 1.;
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
  well_known t t.remote_requests ~remote
    ~segment_id:Bootstrap.request_segment_id
    ~generation:Bootstrap.request_generation
    ~size:(Bootstrap.max_nodes * Bootstrap.request_slot_bytes)

let scratch_descriptor t ~remote =
  (* The exporter grants write-only; claiming read locally would make
     policied writes attempt a verify read-back the remote rejects.
     Loss of an unverifiable ack heals by the requester's reissue. *)
  well_known ~rights:Rmem.Rights.write_only t t.remote_scratches ~remote
    ~segment_id:Bootstrap.scratch_segment_id
    ~generation:Bootstrap.scratch_generation
    ~size:(Bootstrap.scratch_slots * Bootstrap.scratch_slot_bytes)

(* ------------------------------------------------------------------ *)
(* Local service procedures (reached by local RPC from the kernel).    *)

let add_name t record =
  charge t (costs t).Cluster.Costs.hash_insert;
  Metrics.Account.add t.stats ~category:"addname" 1.;
  match Registry.insert t.registry record with
  | Ok (_ : int) -> ()
  | Error `Full -> failwith "name clerk: registry full"

let delete_name t name =
  charge t (costs t).Cluster.Costs.hash_delete;
  Metrics.Account.add t.stats ~category:"deletename" 1.;
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

(* Scratch-slot rendezvous, shared by this clerk's control-transfer
   lookup and any other control-plane exchange (the sharding layer's
   registration path) whose reply is a remote WRITE into our scratch
   segment: allocate a slot (arming its flag word to pending), then spin
   on the flag until the reply lands or the deadline passes. *)
let alloc_scratch_slot t =
  let slot = t.next_scratch_slot in
  t.next_scratch_slot <- (slot + 1) mod Bootstrap.scratch_slots;
  Cluster.Address_space.write_word t.space
    ~addr:(Bootstrap.scratch_base + (slot * Bootstrap.scratch_slot_bytes))
    Bootstrap.reply_pending;
  slot

let await_scratch_reply t ~slot =
  let flag = Bootstrap.scratch_base + (slot * Bootstrap.scratch_slot_bytes) in
  let deadline =
    Sim.Time.add (Sim.Engine.now (Cluster.Node.engine t.node)) (Sim.Time.ms 50)
  in
  (* User-level spin wait on the flag word. *)
  if
    not
      (Sim.Proc.spin ~every:(Sim.Time.us 5) ~deadline (fun () ->
           Cluster.Address_space.read_word t.space ~addr:flag
           <> Bootstrap.reply_pending))
  then raise Rmem.Status.Timeout
  else if
    Cluster.Address_space.read_word t.space ~addr:flag = Bootstrap.reply_found
  then Record.decode_at t.space ~addr:(flag + 4)
  else None

(* LOOKUPNAME by control transfer, the paper's alternative to probing:
   write the lookup arguments (with notification) into the exporter
   clerk's request segment and spin on a local scratch slot until the
   exporter's reply write lands.  It bypasses the cache, and imports
   [remote]'s registry as a probing lookup would, so both paths charge
   the same import. *)
let lookup_by_control_transfer t ~remote name =
  Metrics.Account.add t.stats ~category:"lookup" 1.;
  let (_ : remote Registry.reader) = registry_reader t ~remote in
  Metrics.Account.add t.stats ~category:"control-transfer lookups" 1.;
  let slot = alloc_scratch_slot t in
  let reply_off = slot * Bootstrap.scratch_slot_bytes in
  let request = Bytes.make 40 '\000' in
  Bytes.blit_string name 0 request 0 (String.length name);
  Bytes.set_int32_le request 32
    (Int32.of_int (Atm.Addr.to_int (Cluster.Node.addr t.node)));
  Bytes.set_int32_le request 36 (Int32.of_int reply_off);
  let req_desc = request_descriptor t ~remote in
  let my_slot =
    Atm.Addr.to_int (Cluster.Node.addr t.node) * Bootstrap.request_slot_bytes
  in
  Rmem.Remote_memory.write t.rmem req_desc ~off:my_slot ~notify:true request;
  match await_scratch_reply t ~slot with
  | None -> raise (Name_not_found name)
  | Some record ->
      cache_record t record;
      record

(* Exporter-side handler for control-transfer lookups, attached to the
   request segment's notification descriptor as a signal handler. *)
let serve_lookup_requests t =
  Rmem.Notification.set_signal_handler
    (Rmem.Segment.notification t.request_segment)
    (Some
       (fun record ->
         let off = record.Rmem.Notification.off in
         let request =
           Cluster.Address_space.read t.space
             ~addr:(Bootstrap.request_base + off)
             ~len:40
         in
         let raw_name = Bytes.sub_string request 0 32 in
         let name =
           match String.index_opt raw_name '\000' with
           | Some i -> String.sub raw_name 0 i
           | None -> raw_name
         in
         let reply_node =
           Atm.Addr.of_int (Int32.to_int (Bytes.get_int32_le request 32))
         in
         let reply_off = Int32.to_int (Bytes.get_int32_le request 36) in
         charge t (costs t).Cluster.Costs.hash_lookup;
         Metrics.Account.add t.stats ~category:"lookups served" 1.;
         let reply = Bytes.make Bootstrap.scratch_slot_bytes '\000' in
         (match Registry.lookup t.registry name with
         | Some (found, _) ->
             Bytes.set_int32_le reply 0 (Int32.of_int Bootstrap.reply_found);
             Bytes.blit (Record.encode found) 0 reply 4 Record.slot_bytes
         | None -> Bytes.set_int32_le reply 0
                     (Int32.of_int Bootstrap.reply_absent));
         let scratch = scratch_descriptor t ~remote:reply_node in
         (* Record body first, flag word implicitly included: the whole
            reply travels in one frame, so the spinner sees it atomically. *)
         Rmem.Remote_memory.write t.rmem scratch ~off:reply_off reply))

(* ------------------------------------------------------------------ *)
(* Lookup: the LOOKUPNAME service procedure.                           *)

let lookup ?(force = false) ?hint t name =
  Metrics.Account.add t.stats ~category:"lookup" 1.;
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
      Metrics.Account.add t.stats ~category:"lookup hits" 1.;
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
        Metrics.Account.add t.stats ~category:"purged on refresh" 1.;
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
            Metrics.Account.add t.stats ~category:"reannounced" 1.;
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

let cached_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.import_cache []
  |> List.sort String.compare
