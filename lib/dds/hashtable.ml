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

type server = Plane.home

let slots (h : server) = Rmem.Segment.length h.segment / slot_bytes

let key_at (h : server) index =
  Cluster.Address_space.read_word h.hspace ~addr:(index * slot_bytes)

let value_at (h : server) index =
  Cluster.Address_space.read_word h.hspace ~addr:((index * slot_bytes) + 4)

let classify key k =
  if k = empty_key then Probe.Free
  else if k = tombstone_key then Probe.Tombstone None
  else if k = key then Probe.Hit ()
  else Probe.Other

let classify_local h key index = classify key (key_at h index)

let local_walk h key =
  Probe.walk ~slots:(slots h) ~hash:(hash_key key) ~classify:classify_local h
    key

let insert_words h ~key ~value =
  match local_walk h key with
  | Probe.Found { index; _ } ->
      Cluster.Address_space.write_word h.hspace
        ~addr:((index * slot_bytes) + 4)
        value;
      true
  | Probe.Absent { reusable = Some index; _ }
  | Probe.Absent { reusable = None; free = Some index; _ } ->
      Cluster.Address_space.write_word h.hspace ~addr:(index * slot_bytes) key;
      Cluster.Address_space.write_word h.hspace
        ~addr:((index * slot_bytes) + 4)
        value;
      true
  | Probe.Absent { reusable = None; free = None; _ } -> false

let local_insert h ~key ~value =
  insert_words h ~key:(Int32.to_int key) ~value:(Int32.to_int value)

(* The key's value word, 0 when absent. *)
let local_lookup h key =
  match local_walk h key with
  | Probe.Found { index; _ } -> value_at h index
  | Probe.Absent _ -> 0

let local_delete h key =
  match local_walk h key with
  | Probe.Found { index; _ } ->
      let v = value_at h index in
      Cluster.Address_space.write_word h.hspace ~addr:(index * slot_bytes)
        tombstone_key;
      v <> 0
  | Probe.Absent _ -> false

let word = Call.word
let set_word = Call.set_word

(* Write a reply: its status word and a value word. *)
let reply (r : Call.reply) st v =
  set_word r.buf 0 st;
  set_word r.buf 4 v;
  r.len <- 8

(* The RPC service, returning the measured per-operation hash cost. *)
let serve h ~src:_ body ~pos ~len ~reply:r =
  if len < 12 then (reply r 3 0; Sim.Time.zero)
  else begin
    let op = word body pos in
    let key = word body (pos + 4) in
    let value = word body (pos + 8) in
    let c = Cluster.Node.costs h.Plane.hnode in
    match op with
    | 1 ->
        if insert_words h ~key ~value then reply r 0 0 else reply r 2 0;
        Plane.charge h c.Cluster.Costs.hash_insert
    | 2 ->
        let v = local_lookup h key in
        if v <> 0 then reply r 0 v else reply r 1 0;
        Plane.charge h c.Cluster.Costs.hash_lookup
    | 3 ->
        reply r (if local_delete h key then 0 else 1) 0;
        Plane.charge h c.Cluster.Costs.hash_delete
    | _ -> reply r 3 0; Sim.Time.zero
  end

let server ~rmem ~amsg ~slots () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Dds.Hashtable.server: slots must be a positive power of two";
  Plane.home rmem amsg ~name:"dds.htab" ~len:(slots * slot_bytes) ~id:rpc_id
    serve

type t = { c : Plane.client; tslots : int }

let client ~rmem ~amsg ~kind ?policy s =
  let plane = Plane.connect rmem ?policy s ~scratch:64 in
  { c = Plane.client amsg ~kind ~request:12 plane; tslots = slots s }

let cas_losses t = t.c.cas_losses
let rpc_fallbacks t = t.c.rpc_fallbacks

(* DX path: each probe READs one slot into the plane's scratch buffer
   and classifies its key word in place; a hit carries the slot's
   value word. *)

let classify_remote p key index =
  Plane.read p ~soff:(index * slot_bytes) ~len:slot_bytes;
  match classify key (Plane.word p ~off:0) with
  | Probe.Hit () -> Probe.Hit (Plane.word p ~off:4)
  | (Probe.Free | Probe.Tombstone _ | Probe.Other) as step -> step

let dx_walk t key =
  Probe.walk ~slots:t.tslots ~hash:(hash_key key) ~classify:classify_remote
    t.c.plane key

let deposit_value t index value =
  let b = Bytes.create 4 in
  set_word b 0 value;
  Plane.write t.c.plane ~off:((index * slot_bytes) + 4) b

(* The key's value word, 0 when absent. *)
let dx_lookup t ~budget:_ key _ =
  match dx_walk t key with Probe.Found { hit; _ } -> hit | Probe.Absent _ -> 0

(* 0, or [Plane.exhausted] when the table is full, or [Plane.contended]. *)
let rec dx_insert t ~budget key value =
  match dx_walk t key with
  | Probe.Found { index; _ } ->
      deposit_value t index value;
      0
  | Probe.Absent { reusable = Some index; _ } ->
      dx_claim t ~budget key value ~index ~expect:tombstone_key
  | Probe.Absent { reusable = None; free = Some index; _ } ->
      dx_claim t ~budget key value ~index ~expect:empty_key
  | Probe.Absent { reusable = None; free = None; _ } -> Plane.exhausted

and dx_claim t ~budget key value ~index ~expect =
  let witness =
    Plane.cas t.c.plane ~doff:(index * slot_bytes) ~old_value:expect
      ~new_value:key
  in
  if witness = expect then begin
    deposit_value t index value;
    0
  end
  else begin
    t.c.cas_losses <- t.c.cas_losses + 1;
    if witness = key then begin
      (* A concurrent insert of the same key won the claim: depositing
         over its slot is the overwrite semantics. *)
      deposit_value t index value;
      0
    end
    else if budget <= 0 then Plane.contended
    else dx_insert t ~budget:(budget - 1) key value
  end

(* 1 when the key was present, 0 when not, or [Plane.contended]. *)
let rec dx_delete t ~budget key _ =
  match dx_walk t key with
  | Probe.Absent _ -> 0
  | Probe.Found { index; hit = v; _ } ->
      let witness =
        Plane.cas t.c.plane ~doff:(index * slot_bytes) ~old_value:key
          ~new_value:tombstone_key
      in
      if witness = key then Bool.to_int (v <> 0)
      else begin
        t.c.cas_losses <- t.c.cas_losses + 1;
        if witness = tombstone_key || witness = empty_key then 0
        else if budget <= 0 then Plane.contended
        else dx_delete t ~budget:(budget - 1) key 0
      end

(* RPC path, answering as the DX one: the reply's status word; its
   value word is read in place. *)

let rpc_op t ~op ~key ~value =
  let c = t.c in
  set_word c.request 0 op;
  set_word c.request 4 key;
  set_word c.request 8 value;
  if Plane.call c c.plane ~id:rpc_id < 8 then 3 else word c.reply 0

let rpc_insert t key value =
  match rpc_op t ~op:1 ~key ~value with
  | 0 -> 0
  | 2 -> Plane.exhausted
  | _ -> failwith "Dds.Hashtable: malformed insert reply"

let rpc_lookup t key _ =
  match rpc_op t ~op:2 ~key ~value:0 with
  | 0 -> word t.c.reply 4
  | 1 -> 0
  | _ -> failwith "Dds.Hashtable: malformed lookup reply"

let rpc_delete t key _ =
  match rpc_op t ~op:3 ~key ~value:0 with
  | 0 -> 1
  | 1 -> 0
  | _ -> failwith "Dds.Hashtable: malformed delete reply"

(* Client-facing operations *)

let commit t key ~read v =
  Plane.op_commit t.c
    ~word:((home_slot ~slots:t.tslots key * slot_bytes) + 4)
    ~read v

let lookup t key =
  let key = key_word key in
  Plane.op_begin t.c;
  let v =
    Plane.phase t.c Plane.Dx_outright ~dx:dx_lookup ~rpc:rpc_lookup t key 0
  in
  commit t key ~read:true v;
  if v = 0 then None else Some (Int32.of_int v)

let insert t ~key ~value =
  let key = key_word key in
  let value = Int32.to_int value in
  if value = 0 then invalid_arg "Dds.Hashtable.insert: value 0 is reserved";
  Plane.op_begin t.c;
  let r =
    Plane.phase t.c Plane.Dx_then_rpc ~dx:dx_insert ~rpc:rpc_insert t key value
  in
  if r < 0 then raise Full;
  commit t key ~read:false value

let delete t key =
  let key = key_word key in
  Plane.op_begin t.c;
  let present =
    Plane.phase t.c Plane.Dx_then_rpc ~dx:dx_delete ~rpc:rpc_delete t key 0 = 1
  in
  commit t key ~read:false 0;
  present

let flush t = Plane.flush t.c
