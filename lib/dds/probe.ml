(* The probe-sequence policy every open-addressed table shares.  Kept
   free of storage concerns: the classify callback does the slot read
   (local or remote) and the walk decides only where to look next and
   what the trip means. *)

let slot_index ~slots ~hash probe = (hash + probe) land (slots - 1)

type ('hit, 'note) step = Hit of 'hit | Free | Tombstone of 'note option | Other

type ('hit, 'note) outcome =
  | Found of { index : int; probes : int; hit : 'hit }
  | Absent of {
      free : int option;
      reusable : int option;
      note : 'note option;
      probes : int;
    }

let walk ~slots ~hash ~classify =
  let rec go probe reusable note =
    if probe >= slots then Absent { free = None; reusable; note; probes = probe }
    else begin
      let index = slot_index ~slots ~hash probe in
      match classify ~index ~probe with
      | Hit hit -> Found { index; probes = probe; hit }
      | Free -> Absent { free = Some index; reusable; note; probes = probe }
      | Tombstone n ->
          let reusable =
            match reusable with None -> Some index | some -> some
          in
          let note = match note with None -> n | some -> some in
          go (probe + 1) reusable note
      | Other -> go (probe + 1) reusable note
    end
  in
  go 0 None None
