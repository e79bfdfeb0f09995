(* The open-addressed hash table serialized into a registry segment.

   All operations here are *local* memory operations performed by the
   clerk that owns the segment; remote clerks access the same bytes with
   remote READs and decode them with {!Record}.  Linear probing; every
   clerk uses the same hash function, so a name usually sits at the same
   slot index on whichever registry holds it. *)

type t = {
  space : Cluster.Address_space.t;
  base : int;
  slots : int;
  mutable live : int;
}

let segment_bytes ~slots = slots * Record.slot_bytes

let create ~space ~base ~slots =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Registry.create: slots must be a positive power of two";
  { space; base; slots; live = 0 }

let slots t = t.slots
let live t = t.live

let slot_index t name probe =
  Dds.Probe.slot_index ~slots:t.slots ~hash:(Record.fnv_hash name) probe

let slot_offset (_ : t) index = index * Record.slot_bytes

let lookup_at t index name =
  Record.lookup_at t.space ~addr:(t.base + slot_offset t index) name

let read_slot t index =
  Cluster.Address_space.read t.space
    ~addr:(t.base + slot_offset t index)
    ~len:Record.slot_bytes

let flag t index =
  Cluster.Address_space.read_word t.space ~addr:(t.base + slot_offset t index)

(* The shared probe walk ({!Dds.Probe}), classified over local slots read
   in place: an invalid slot is free (chain-ending), a moved tombstone is
   skipped but reusable, and only a valid record holding [name] is a
   hit. *)
let walk t name =
  Dds.Probe.walk ~slots:t.slots ~hash:(Record.fnv_hash name)
    ~classify:(fun ~index ~probe:_ ->
      let flag = flag t index in
      if flag = Record.flag_invalid then Dds.Probe.Free
      else if flag = Record.flag_moved then Dds.Probe.Tombstone None
      else if Option.is_some (lookup_at t index name) then Dds.Probe.Hit
      else Dds.Probe.Other)

(* Insert: a valid slot already holding this name is overwritten
   (re-export replaces); otherwise the first tombstone along the chain
   is preferred over the chain-ending free slot.  Write the body first,
   flag last. *)
let insert t record =
  let name = record.Record.name in
  match
    match walk t name with
    | Dds.Probe.Found { index; _ } -> Ok index
    | Dds.Probe.Absent { reusable = Some index; _ }
    | Dds.Probe.Absent { reusable = None; free = Some index; _ } ->
        Ok index
    | Dds.Probe.Absent { reusable = None; free = None; _ } -> Error `Full
  with
  | Error `Full -> Error `Full
  | Ok index ->
      let slot = Record.encode record in
      let body = Bytes.sub slot 4 (Record.slot_bytes - 4) in
      let was_valid = flag t index = Record.flag_valid in
      (* Invalidate, fill body, then set the flag word — the remote
         readers' consistency contract. *)
      Cluster.Address_space.write_word t.space
        ~addr:(t.base + slot_offset t index)
        Record.flag_invalid;
      Cluster.Address_space.write t.space
        ~addr:(t.base + slot_offset t index + 4)
        body;
      Cluster.Address_space.write_word t.space
        ~addr:(t.base + slot_offset t index)
        Record.flag_valid;
      if not was_valid then t.live <- t.live + 1;
      Ok index

let lookup t name =
  match walk t name with
  | Dds.Probe.Found { index; probes } ->
      Option.map (fun record -> (record, probes)) (lookup_at t index name)
  | Dds.Probe.Absent _ -> None

let well_formed t =
  let valid = ref 0 in
  let sane = ref true in
  for index = 0 to t.slots - 1 do
    match Record.decode (read_slot t index) with
    | None -> ()
    | Some record ->
        incr valid;
        if String.length record.Record.name = 0 then sane := false
  done;
  !sane && !valid = t.live

let delete t name =
  match lookup t name with
  | None -> false
  | Some (_, i) ->
      let index = slot_index t name i in
      Cluster.Address_space.write_word t.space
        ~addr:(t.base + slot_offset t index)
        Record.flag_invalid;
      t.live <- t.live - 1;
      true

(* The sharding layer's deletion: mark the slot moved rather than
   invalid, so probe chains running past it stay intact and remote
   readers learn the record migrated.  Returns the slot index so the
   caller can mirror the single flag word remotely. *)
let tombstone t name =
  match lookup t name with
  | None -> None
  | Some (_, i) ->
      let index = slot_index t name i in
      Cluster.Address_space.write_word t.space
        ~addr:(t.base + slot_offset t index)
        Record.flag_moved;
      t.live <- t.live - 1;
      Some index

let iter t f =
  for index = 0 to t.slots - 1 do
    match Record.decode (read_slot t index) with
    | None -> ()
    | Some record -> f index record
  done
