type t = {
  key : Access.seg_key;
  seg_name : string;
  a : Access.t;
  b : Access.t;
}

(* Byte-granular classification of a region's synchronization words: a
   byte is "sync" when some CAS touched it and no plain store ever did.
   Built per region from the access list itself, so an optimistic CAS
   retry loop never needs declaring. *)
let sync_bytes accesses =
  let atomic = Hashtbl.create 64 and plain = Hashtbl.create 64 in
  List.iter
    (fun (a : Access.t) ->
      let table =
        match a.kind with
        | Access.Atomic -> Some atomic
        | Access.Store -> Some plain
        | Access.Load -> None
      in
      match table with
      | None -> ()
      | Some table ->
          for b = a.off to a.off + a.count - 1 do
            Hashtbl.replace table b ()
          done)
    accesses;
  fun b -> Hashtbl.mem atomic b && not (Hashtbl.mem plain b)

let overlap_range (a : Access.t) (b : Access.t) =
  (Stdlib.max a.off b.off, Stdlib.min (a.off + a.count) (b.off + b.count))

let exempt monitor ~key ~is_sync (a : Access.t) (b : Access.t) =
  (a.kind = Access.Atomic && b.kind = Access.Atomic)
  ||
  let lo, hi = overlap_range a b in
  let covered byte =
    is_sync byte
    || Monitor.is_declared_sync monitor ~key ~off:(byte land lnot 3)
  in
  let rec all byte = byte >= hi || (covered byte && all (byte + 1)) in
  all lo

(* Regions in the order of their first access, each with its accesses
   in order. *)
let by_region accesses =
  let by_key = Hashtbl.create 8 in
  let keys =
    List.filter
      (fun (a : Access.t) ->
        match Hashtbl.find_opt by_key a.key with
        | Some l ->
            l := a :: !l;
            false
        | None ->
            Hashtbl.replace by_key a.key (ref [ a ]);
            true)
      accesses
  in
  List.map
    (fun (a : Access.t) -> (a.key, List.rev !(Hashtbl.find by_key a.key)))
    keys

let find monitor =
  let races = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (key, accesses) ->
      let is_sync = sync_bytes accesses in
      let arr = Array.of_list accesses in
      for i = 0 to Array.length arr - 1 do
        for j = i + 1 to Array.length arr - 1 do
          let a = arr.(i) and b = arr.(j) in
          if
            a.Access.agent <> b.Access.agent
            && Access.overlaps a b
            && (Access.is_write a || Access.is_write b)
            && (not (exempt monitor ~key ~is_sync a b))
            && (not (Access.ordered_before a b))
            && not (Access.ordered_before b a)
          then begin
            let lo, _ = overlap_range a b in
            let dedup = (key, a.Access.agent, b.Access.agent, lo) in
            if not (Hashtbl.mem seen dedup) then begin
              Hashtbl.replace seen dedup ();
              races :=
                { key; seg_name = a.Access.seg_name; a; b } :: !races
            end
          end
        done
      done)
    (by_region (Monitor.accesses monitor));
  List.rev !races

let describe r =
  Printf.sprintf "race on %s (%s): %s || %s" r.seg_name
    (Access.key_to_string r.key)
    (Access.describe r.a) (Access.describe r.b)
