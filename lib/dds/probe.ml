(* The probe-sequence policy every open-addressed table shares.  Kept
   free of storage concerns: the classify function does the slot read
   (local or remote) and the walk decides only where to look next and
   what the trip means.  [classify] is the caller's top-level function
   and [env] and [key] its arguments, so a walk builds no closure; the
   recursion is top-level too, and a walk that ends on a hit allocates
   only its [Found]. *)

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

let rec go ~slots ~hash ~classify env key probe reusable note =
  if probe >= slots then Absent { free = None; reusable; note; probes = probe }
  else begin
    let index = slot_index ~slots ~hash probe in
    match classify env key index with
    | Hit hit -> Found { index; probes = probe; hit }
    | Free -> Absent { free = Some index; reusable; note; probes = probe }
    | Tombstone n ->
        let reusable =
          match reusable with None -> Some index | some -> some
        in
        let note = match note with None -> n | some -> some in
        go ~slots ~hash ~classify env key (probe + 1) reusable note
    | Other -> go ~slots ~hash ~classify env key (probe + 1) reusable note
  end

let walk ~slots ~hash ~classify env key =
  go ~slots ~hash ~classify env key 0 None None
