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
   semantics; losing it to a different key restarts the probe walk.

   Keys and values are ints inside — the 32-bit words, sign-extended —
   and become int32s only at the client-facing operations. *)

let rpc_id = 0xC0
let slot_bytes = 8
let empty_key = 0
let tombstone_key = -1

exception Full

(* The key as a word; raises on the two reserved keys. *)
let key_word key =
  let k = Int32.to_int key in
  if k = empty_key || k = tombstone_key then
    invalid_arg "Dds.Hashtable: keys 0 and -1 are reserved";
  k

(* Fibonacci scrambling into the non-negative range: every clerk hashes
   identically, so a key's home slot is the same on every node. *)
let hash_key key = key * 0x9E3779B1 land 0x3FFFFFFF
let home_slot ~slots key = hash_key key land (slots - 1)
let home_index ~slots key = home_slot ~slots (Int32.to_int key)

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

let classify key k =
  if k = empty_key then Probe.Free
  else if k = tombstone_key then Probe.Tombstone None
  else if k = key then Probe.Hit ()
  else Probe.Other

let local_walk s key =
  Probe.walk ~slots:s.sslots ~hash:(hash_key key)
    ~classify:(fun ~index ~probe:_ -> classify key (key_at s index))

let insert_words s ~key ~value =
  match local_walk s key with
  | Probe.Found { index; _ } ->
      Cluster.Address_space.write_word s.sspace
        ~addr:((index * slot_bytes) + 4)
        value;
      true
  | Probe.Absent { reusable = Some index; _ }
  | Probe.Absent { reusable = None; free = Some index; _ } ->
      Cluster.Address_space.write_word s.sspace ~addr:(index * slot_bytes) key;
      Cluster.Address_space.write_word s.sspace
        ~addr:((index * slot_bytes) + 4)
        value;
      true
  | Probe.Absent { reusable = None; free = None; _ } -> false

let local_insert s ~key ~value =
  insert_words s ~key:(Int32.to_int key) ~value:(Int32.to_int value)

(* The key's value word, 0 when absent. *)
let local_lookup s key =
  match local_walk s key with
  | Probe.Found { index; _ } -> value_at s index
  | Probe.Absent _ -> 0

let local_delete s key =
  match local_walk s key with
  | Probe.Found { index; _ } ->
      let v = value_at s index in
      Cluster.Address_space.write_word s.sspace ~addr:(index * slot_bytes)
        tombstone_key;
      v <> 0
  | Probe.Absent _ -> false

let word = Call.word
let set_word = Call.set_word

(* Write a reply: its status word and a value word. *)
let reply b st v =
  set_word b 0 st;
  set_word b 4 v;
  8

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
  Call.serve amsg ~id:rpc_id (fun ~src:_ body ~pos ~len ~reply:r ->
      if len < 12 then reply r 3 0
      else begin
        let op = word body pos in
        let key = word body (pos + 4) in
        let value = word body (pos + 8) in
        let c = Cluster.Node.costs snode in
        match op with
        | 1 ->
            let ok = insert_words s ~key ~value in
            charge snode c.Cluster.Costs.hash_insert;
            if ok then reply r 0 0 else reply r 2 0
        | 2 ->
            let v = local_lookup s key in
            charge snode c.Cluster.Costs.hash_lookup;
            if v <> 0 then reply r 0 v else reply r 1 0
        | 3 ->
            let present = local_delete s key in
            charge snode c.Cluster.Costs.hash_delete;
            reply r (if present then 0 else 1) 0
        | _ -> reply r 3 0
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
  hkey : int * int * int;
  request : bytes; (* the RPC path's, rewritten per call *)
  reply : bytes;
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

let client ~rmem ~amsg ~kind ?policy s =
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
    hkey = server_key s;
    request = Bytes.create 12;
    reply = Bytes.create 8;
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let cas_losses t = t.cas_losses
let rpc_fallbacks t = t.rpc_fallbacks

(* DX fast path: each probe READs one slot into the plane's scratch
   buffer and classifies its key word in place; a hit carries the
   slot's value word. *)

let dx_walk t key =
  Probe.walk ~slots:t.tslots ~hash:(hash_key key)
    ~classify:(fun ~index ~probe:_ ->
      Plane.read t.plane ~soff:(index * slot_bytes) ~len:slot_bytes;
      match classify key (Plane.word t.plane ~off:0) with
      | Probe.Hit () -> Probe.Hit (Plane.word t.plane ~off:4)
      | (Probe.Free | Probe.Tombstone _ | Probe.Other) as step -> step)

let deposit_value t index value =
  let b = Bytes.create 4 in
  set_word b 0 value;
  Plane.write t.plane ~off:((index * slot_bytes) + 4) b

(* The key's value word, 0 when absent. *)
let dx_lookup t key =
  match dx_walk t key with Probe.Found { hit; _ } -> hit | Probe.Absent _ -> 0

let rec dx_insert t ~budget key value =
  match dx_walk t key with
  | Probe.Found { index; _ } ->
      deposit_value t index value;
      `Ok
  | Probe.Absent { reusable = Some index; _ } ->
      dx_claim t ~budget key value ~index ~expect:tombstone_key
  | Probe.Absent { reusable = None; free = Some index; _ } ->
      dx_claim t ~budget key value ~index ~expect:empty_key
  | Probe.Absent { reusable = None; free = None; _ } -> `Full

and dx_claim t ~budget key value ~index ~expect =
  let witness =
    Plane.cas t.plane ~doff:(index * slot_bytes) ~old_value:expect
      ~new_value:key
  in
  if witness = expect then begin
    deposit_value t index value;
    `Ok
  end
  else begin
    t.cas_losses <- t.cas_losses + 1;
    if witness = key then begin
      (* A concurrent insert of the same key won the claim: depositing
         over its slot is the overwrite semantics. *)
      deposit_value t index value;
      `Ok
    end
    else if budget <= 0 then `Contended
    else dx_insert t ~budget:(budget - 1) key value
  end

let rec dx_delete t ~budget key =
  match dx_walk t key with
  | Probe.Absent _ -> `Ok false
  | Probe.Found { index; hit = v; _ } ->
      let witness =
        Plane.cas t.plane ~doff:(index * slot_bytes) ~old_value:key
          ~new_value:tombstone_key
      in
      if witness = key then `Ok (v <> 0)
      else begin
        t.cas_losses <- t.cas_losses + 1;
        if witness = tombstone_key || witness = empty_key then `Ok false
        else if budget <= 0 then `Contended
        else dx_delete t ~budget:(budget - 1) key
      end

(* RPC path: the reply's status word; its value word is read in place. *)

let rpc_op t ~op ~key ~value =
  set_word t.request 0 op;
  set_word t.request 4 key;
  set_word t.request 8 value;
  if Call.call t.ep ~dst:t.home ~id:rpc_id t.request ~reply:t.reply < 8 then 3
  else word t.reply 0

let rpc_insert t key value =
  match rpc_op t ~op:1 ~key ~value with
  | 0 -> ()
  | 2 -> raise Full
  | _ -> failwith "Dds.Hashtable: malformed insert reply"

(* The value word, 0 when absent. *)
let rpc_lookup t key =
  match rpc_op t ~op:2 ~key ~value:0 with
  | 0 -> word t.reply 4
  | 1 -> 0
  | _ -> failwith "Dds.Hashtable: malformed lookup reply"

let rpc_delete t key =
  match rpc_op t ~op:3 ~key ~value:0 with
  | 0 -> true
  | 1 -> false
  | _ -> failwith "Dds.Hashtable: malformed delete reply"

(* Client-facing operations *)

let op_begin t = Plane.begin_op t.plane.Plane.node

let op_commit t key ~read v =
  Plane.commit t.plane.Plane.node ~cell:t.hkey
    ~word:((home_slot ~slots:t.tslots key * slot_bytes) + 4)
    ~read v

let hybrid_budget = 2

let lookup t key =
  let key = key_word key in
  op_begin t;
  let v =
    match t.kind with
    | Kind.Dx | Kind.Hybrid -> dx_lookup t key
    | Kind.Rpc -> rpc_lookup t key
  in
  op_commit t key ~read:true v;
  if v = 0 then None else Some (Int32.of_int v)

let insert t ~key ~value =
  let key = key_word key in
  let value = Int32.to_int value in
  if value = 0 then invalid_arg "Dds.Hashtable.insert: value 0 is reserved";
  op_begin t;
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
  op_commit t key ~read:false value

let delete t key =
  let key = key_word key in
  op_begin t;
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
  op_commit t key ~read:false 0;
  present

(* The fence's physical READ must not leak into a monitored history as
   an unscoped access, so flush is bracketed like any other operation and
   commits as a [Sync] (constrains nothing). *)
let flush t =
  match t.kind with
  | Kind.Rpc -> ()
  | Kind.Dx | Kind.Hybrid ->
      op_begin t;
      Plane.fence t.plane;
      Plane.sync t.plane.Plane.node ~cell:t.hkey
