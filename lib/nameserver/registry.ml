(* The open-addressed hash table serialized into a registry segment.

   The clerk that owns the segment changes it with local memory
   operations; remote clerks READ the same bytes.  Whoever reads, a
   name's probe chain is walked one way: the shared {!Dds.Probe} walk
   over slot images read in place under [classify], the one slot rule.
   Linear probing; every clerk uses the same hash function, so a name
   usually sits at the same slot index on whichever registry holds
   it. *)

(* How a walk reaches the slot images: [slot env off] brings the slot
   at byte offset [off] of the table into [space] and returns its
   address there.  Built once per table a reader walks, so a walk
   builds no closure. *)
type 'env reader = {
  space : Cluster.Address_space.t;
  slot : 'env -> int -> int;
  env : 'env;
}

let reader space ~slot env = { space; slot; env }
let env (r : _ reader) = r.env

type t = {
  space : Cluster.Address_space.t;
  base : int;
  slots : int;
  mutable live : int;
  local : int reader;  (* the table in place: slot [off] is at [base + off] *)
}

let segment_bytes ~slots = slots * Record.slot_bytes

let create ~space ~base ~slots =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Registry.create: slots must be a positive power of two";
  { space; base; slots; live = 0; local = reader space ~slot:( + ) base }

let slots t = t.slots
let live t = t.live

(* The one slot rule: the only reading of a slot's flag word.  A valid
   slot is a record, a hit when it holds [name]; a moved slot is a
   tombstone (deleted or migrated) that every walk skips, carrying the
   forward its spare bytes may hold; any other flag is a free slot,
   where every chain ends. *)
let classify space ~addr name =
  let flag = Cluster.Address_space.read_word space ~addr in
  if flag = Record.flag_valid then
    if Record.holds_at space ~addr name then
      Dds.Probe.Hit (Record.body_at space ~addr name)
    else Dds.Probe.Other
  else if flag = Record.flag_moved then
    Dds.Probe.Tombstone (Record.forward_at space ~addr)
  else Dds.Probe.Free

let classify_slot (r : _ reader) name index =
  classify r.space ~addr:(r.slot r.env (index * Record.slot_bytes)) name

let walk ~slots r name =
  Dds.Probe.walk ~slots ~hash:(Record.fnv_hash name) ~classify:classify_slot r
    name

let address t index = t.base + (index * Record.slot_bytes)
let local_walk t name = walk ~slots:t.slots t.local name

(* Insert: a valid slot already holding this name is overwritten
   (re-export replaces); otherwise the first tombstone along the chain
   is preferred over the chain-ending free slot.  Invalidate, write the
   body, then set the flag word — the remote readers' consistency
   contract. *)
let insert t record =
  match
    match local_walk t record.Record.name with
    | Dds.Probe.Found { index; _ } -> Ok (index, 0)
    | Dds.Probe.Absent { reusable = Some index; _ }
    | Dds.Probe.Absent { reusable = None; free = Some index; _ } ->
        Ok (index, 1)
    | Dds.Probe.Absent { reusable = None; free = None; _ } -> Error `Full
  with
  | Error `Full -> Error `Full
  | Ok (index, added) ->
      let addr = address t index in
      Cluster.Address_space.write_word t.space ~addr Record.flag_invalid;
      Cluster.Address_space.write_from t.space ~addr:(addr + 4)
        (Record.encode record) ~pos:4 ~len:(Record.slot_bytes - 4);
      Cluster.Address_space.write_word t.space ~addr Record.flag_valid;
      t.live <- t.live + added;
      Ok index

let lookup t name =
  match local_walk t name with
  | Dds.Probe.Found { hit; probes; _ } -> Some (hit, probes)
  | Dds.Probe.Absent _ -> None

(* Deletion writes a tombstone over the flag word, so the chains that
   run past the slot stay whole. *)
let delete t name =
  match local_walk t name with
  | Dds.Probe.Absent _ -> None
  | Dds.Probe.Found { index; _ } ->
      Cluster.Address_space.write_word t.space ~addr:(address t index)
        Record.flag_moved;
      t.live <- t.live - 1;
      Some index

(* Each slot's record, if the slot rule reads one there under the name
   its name field holds. *)
let record_at t index =
  let addr = address t index in
  match classify t.space ~addr (Record.name_at t.space ~addr) with
  | Dds.Probe.Hit record -> Some record
  | Dds.Probe.Free | Dds.Probe.Tombstone _ | Dds.Probe.Other -> None

let iter t f =
  for index = 0 to t.slots - 1 do
    Option.iter (f index) (record_at t index)
  done

let well_formed t =
  let valid = ref 0 in
  let sane = ref true in
  iter t (fun _ record ->
      incr valid;
      if String.length record.Record.name = 0 then sane := false);
  !sane && !valid = t.live
