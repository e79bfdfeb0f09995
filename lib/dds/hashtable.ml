(* The distributed open-addressed hash table — the name service's probe
   scheme ({!Probe}) generalized to int32 key/value pairs and all three
   structurings.

   Layout: [slots] 8-byte slots, [key word][value word].  Key 0 is a
   free (chain-ending) slot, key -1 a tombstone; live values are never
   0, so a slot whose key word has been claimed but whose value has not
   yet been deposited still reads as absent.

   DX concurrency control: a writer claims a free or reusable slot by
   CASing the key word, then deposits the value with a blind WRITE.
   Losing the CAS to the {e same} key means a concurrent insert of this
   key won the slot — depositing over it is exactly the overwrite
   semantics; losing it to a different key restarts the probe walk. *)

let rpc_id = 0xC0
let slot_bytes = 8
let empty_key = 0l
let tombstone_key = Int32.minus_one

exception Full

let check_key key =
  if Int32.equal key empty_key || Int32.equal key tombstone_key then
    invalid_arg "Dds.Hashtable: keys 0 and -1 are reserved"

(* Fibonacci scrambling into the non-negative range: every clerk hashes
   identically, so a key's home slot is the same on every node. *)
let hash_key key = Int32.to_int key * 0x9E3779B1 land 0x3FFFFFFF
let home_index ~slots key = hash_key key land (slots - 1)

type server = {
  snode : Cluster.Node.t;
  sspace : Cluster.Address_space.t;
  sslots : int;
  segment : Rmem.Segment.t;
}

let key_at s index =
  Cluster.Address_space.read_word s.sspace ~addr:(index * slot_bytes)

let value_at s index =
  Cluster.Address_space.read_word s.sspace ~addr:((index * slot_bytes) + 4)

(* The server's own walks read the slot words as ints: the reserved keys
   0 and -1 are [empty_key] and [tombstone_key] sign-extended. *)
let local_walk s key =
  let key_word = Int32.to_int key in
  Probe.walk ~slots:s.sslots ~hash:(hash_key key)
    ~classify:(fun ~index ~probe:_ ->
      let k = key_at s index in
      if k = 0 then Probe.Free
      else if k = -1 then Probe.Tombstone None
      else if k = key_word then Probe.Hit
      else Probe.Other)

let local_insert s ~key ~value =
  match local_walk s key with
  | Probe.Found { index; _ } ->
      Cluster.Address_space.write_word s.sspace
        ~addr:((index * slot_bytes) + 4)
        (Int32.to_int value);
      true
  | Probe.Absent { reusable = Some index; _ }
  | Probe.Absent { reusable = None; free = Some index; _ } ->
      Cluster.Address_space.write_word s.sspace ~addr:(index * slot_bytes)
        (Int32.to_int key);
      Cluster.Address_space.write_word s.sspace
        ~addr:((index * slot_bytes) + 4)
        (Int32.to_int value);
      true
  | Probe.Absent { reusable = None; free = None; _ } -> false

let local_lookup s key =
  match local_walk s key with
  | Probe.Found { index; _ } ->
      let v = value_at s index in
      if v = 0 then None else Some (Int32.of_int v)
  | Probe.Absent _ -> None

let local_delete s key =
  match local_walk s key with
  | Probe.Found { index; _ } ->
      let v = value_at s index in
      Cluster.Address_space.write_word s.sspace ~addr:(index * slot_bytes)
        (Int32.to_int tombstone_key);
      v <> 0
  | Probe.Absent _ -> false

(* RPC service cost: stub overhead plus the measured per-operation hash
   cost, charged {e after} the mutation so serves cannot interleave. *)
let charge node extra =
  let c = Cluster.Node.costs node in
  Cluster.Cpu.use (Cluster.Node.cpu node) ~category:Cluster.Cpu.cat_procedure
    (Sim.Time.add c.Cluster.Costs.rpc_stub extra)

let server ~rmem ~amsg ~slots () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Dds.Hashtable.server: slots must be a positive power of two";
  let snode = Rmem.Remote_memory.node rmem in
  let sspace = Cluster.Node.new_address_space snode in
  let segment =
    Rmem.Remote_memory.export rmem ~space:sspace ~base:0
      ~len:(slots * slot_bytes) ~rights:Rmem.Rights.all ~name:"dds.htab" ()
  in
  let s = { snode; sspace; sslots = slots; segment } in
  Call.serve amsg ~id:rpc_id (fun ~src:_ body ->
      let reply st v =
        let b = Bytes.create 8 in
        Bytes.set_int32_le b 0 st;
        Bytes.set_int32_le b 4 v;
        b
      in
      if Bytes.length body < 12 then reply 3l 0l
      else begin
        let op = Int32.to_int (Bytes.get_int32_le body 0) in
        let key = Bytes.get_int32_le body 4 in
        let value = Bytes.get_int32_le body 8 in
        let c = Cluster.Node.costs snode in
        match op with
        | 1 ->
            let ok = local_insert s ~key ~value in
            charge snode c.Cluster.Costs.hash_insert;
            if ok then reply 0l 0l else reply 2l 0l
        | 2 -> (
            let r = local_lookup s key in
            charge snode c.Cluster.Costs.hash_lookup;
            match r with Some v -> reply 0l v | None -> reply 1l 0l)
        | 3 ->
            let present = local_delete s key in
            charge snode c.Cluster.Costs.hash_delete;
            reply (if present then 0l else 1l) 0l
        | _ -> reply 3l 0l
      end);
  s

let server_key s =
  ( Atm.Addr.to_int (Cluster.Node.addr s.snode),
    Rmem.Segment.id s.segment,
    Rmem.Generation.to_int (Rmem.Segment.generation s.segment) )

type t = {
  kind : Kind.t;
  plane : Plane.t;
  ep : Call.endpoint;
  home : Atm.Addr.t;
  tslots : int;
  hook : Hook.t option;
  hkey : int * int * int;
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

let client ~rmem ~amsg ~kind ?policy ?hook s =
  let home = Cluster.Node.addr s.snode in
  let plane =
    Plane.connect rmem ?policy ~remote:home
      ~segment_id:(Rmem.Segment.id s.segment)
      ~generation:(Rmem.Segment.generation s.segment)
      ~size:(s.sslots * slot_bytes) ~scratch:64 ()
  in
  {
    kind;
    plane;
    ep = Call.endpoint amsg;
    home;
    tslots = s.sslots;
    hook;
    hkey = server_key s;
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let cas_losses t = t.cas_losses
let rpc_fallbacks t = t.rpc_fallbacks

(* DX fast path *)

let fetch_slot t index =
  let b = Plane.read_bytes t.plane ~soff:(index * slot_bytes) ~len:slot_bytes in
  (Bytes.get_int32_le b 0, Bytes.get_int32_le b 4)

let dx_walk t key =
  let found = ref 0l in
  let outcome =
    Probe.walk ~slots:t.tslots ~hash:(hash_key key)
      ~classify:(fun ~index ~probe:_ ->
        let k, v = fetch_slot t index in
        if Int32.equal k empty_key then Probe.Free
        else if Int32.equal k tombstone_key then Probe.Tombstone None
        else if Int32.equal k key then begin
          found := v;
          Probe.Hit
        end
        else Probe.Other)
  in
  (outcome, !found)

let deposit_value t index value =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 value;
  Plane.write t.plane ~off:((index * slot_bytes) + 4) b

let dx_lookup t key =
  match dx_walk t key with
  | Probe.Found _, v -> if Int32.equal v 0l then None else Some v
  | Probe.Absent _, _ -> None

let rec dx_insert t ~budget key value =
  match dx_walk t key with
  | Probe.Found { index; _ }, _ ->
      deposit_value t index value;
      `Ok
  | Probe.Absent { reusable; free; _ }, _ -> (
      match
        match (reusable, free) with
        | Some i, _ -> Some (i, tombstone_key)
        | None, Some i -> Some (i, empty_key)
        | None, None -> None
      with
      | None -> `Full
      | Some (index, expect) ->
          let won, witness =
            Plane.cas t.plane ~doff:(index * slot_bytes) ~old_value:expect
              ~new_value:key
          in
          if won then begin
            deposit_value t index value;
            `Ok
          end
          else begin
            t.cas_losses <- t.cas_losses + 1;
            if Int32.equal witness key then begin
              (* A concurrent insert of the same key won the claim:
                 depositing over its slot is the overwrite semantics. *)
              deposit_value t index value;
              `Ok
            end
            else if budget <= 0 then `Contended
            else dx_insert t ~budget:(budget - 1) key value
          end)

let rec dx_delete t ~budget key =
  match dx_walk t key with
  | Probe.Absent _, _ -> `Ok false
  | Probe.Found { index; _ }, v ->
      let won, witness =
        Plane.cas t.plane ~doff:(index * slot_bytes) ~old_value:key
          ~new_value:tombstone_key
      in
      if won then `Ok (not (Int32.equal v 0l))
      else begin
        t.cas_losses <- t.cas_losses + 1;
        if Int32.equal witness tombstone_key || Int32.equal witness empty_key
        then `Ok false
        else if budget <= 0 then `Contended
        else dx_delete t ~budget:(budget - 1) key
      end

(* RPC path *)

let rpc_op t ~op ~key ~value =
  let b = Bytes.create 12 in
  Bytes.set_int32_le b 0 (Int32.of_int op);
  Bytes.set_int32_le b 4 key;
  Bytes.set_int32_le b 8 value;
  let r = Call.call t.ep ~dst:t.home ~id:rpc_id b in
  if Bytes.length r < 8 then (3l, 0l)
  else (Bytes.get_int32_le r 0, Bytes.get_int32_le r 4)

let rpc_insert t key value =
  match rpc_op t ~op:1 ~key ~value with
  | 0l, _ -> ()
  | 2l, _ -> raise Full
  | _ -> failwith "Dds.Hashtable: malformed insert reply"

let rpc_lookup t key =
  match rpc_op t ~op:2 ~key ~value:0l with
  | 0l, v -> Some v
  | 1l, _ -> None
  | _ -> failwith "Dds.Hashtable: malformed lookup reply"

let rpc_delete t key =
  match rpc_op t ~op:3 ~key ~value:0l with
  | 0l, _ -> true
  | 1l, _ -> false
  | _ -> failwith "Dds.Hashtable: malformed delete reply"

(* Client-facing operations *)

let node_id t = Atm.Addr.to_int (Cluster.Node.addr t.plane.Plane.node)

let begin_hook t =
  match t.hook with
  | Some h -> h (Hook.Begin { node = node_id t })
  | None -> ()

let commit_hook t key op =
  match t.hook with
  | None -> ()
  | Some h ->
      let home, seg, gen = t.hkey in
      let word = (home_index ~slots:t.tslots key * slot_bytes) + 4 in
      h (Hook.Commit { node = node_id t; home; seg; gen; word; op })

let hybrid_budget = 2

let lookup t key =
  check_key key;
  begin_hook t;
  let r =
    match t.kind with
    | Kind.Dx | Kind.Hybrid -> dx_lookup t key
    | Kind.Rpc -> rpc_lookup t key
  in
  commit_hook t key (Hook.Read (Option.value r ~default:0l));
  r

let insert t ~key ~value =
  check_key key;
  if Int32.equal value 0l then
    invalid_arg "Dds.Hashtable.insert: value 0 is reserved";
  begin_hook t;
  (match t.kind with
  | Kind.Dx -> (
      match dx_insert t ~budget:max_int key value with
      | `Ok -> ()
      | `Full | `Contended -> raise Full)
  | Kind.Rpc -> rpc_insert t key value
  | Kind.Hybrid -> (
      match dx_insert t ~budget:hybrid_budget key value with
      | `Ok -> ()
      | `Full -> raise Full
      | `Contended ->
          t.rpc_fallbacks <- t.rpc_fallbacks + 1;
          rpc_insert t key value));
  commit_hook t key (Hook.Write value)

let delete t key =
  check_key key;
  begin_hook t;
  let present =
    match t.kind with
    | Kind.Dx -> (
        match dx_delete t ~budget:max_int key with
        | `Ok p -> p
        | `Contended -> false)
    | Kind.Rpc -> rpc_delete t key
    | Kind.Hybrid -> (
        match dx_delete t ~budget:hybrid_budget key with
        | `Ok p -> p
        | `Contended ->
            t.rpc_fallbacks <- t.rpc_fallbacks + 1;
            rpc_delete t key)
  in
  commit_hook t key (Hook.Write 0l);
  present

(* The fence's physical READ must not leak into a monitored history as
   an unscoped access, so flush is hooked like any other operation and
   commits as a [Sync] (constrains nothing). *)
let flush t =
  match t.kind with
  | Kind.Rpc -> ()
  | Kind.Dx | Kind.Hybrid ->
      begin_hook t;
      Plane.fence t.plane;
      (match t.hook with
      | None -> ()
      | Some h ->
          let home, seg, gen = t.hkey in
          h
            (Hook.Commit
               { node = node_id t; home; seg; gen; word = 0; op = Hook.Sync }))
