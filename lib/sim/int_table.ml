(* Linear probing over parallel arrays: [keys] holds [vacant] in a free
   slot.  The table doubles before it is half full, and a removal shifts
   its probe cluster back instead of leaving a tombstone.  [vals] is
   empty until the first key, whose value is the typed filler of free
   slots (no [Obj]); the slot past the capacity keeps it for removals to
   put back, so an old table keeps no removed young value alive. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable shift : int; (* Sys.int_size - log2 (capacity) *)
}

let vacant = min_int
let rec bits b n = if 1 lsl b >= n then b else bits (b + 1) n

let create n =
  let b = bits 3 n in
  { keys = Array.make (1 lsl b) vacant; vals = [||]; size = 0;
    shift = Sys.int_size - b }

(* Fibonacci hashing: high key bits (a stream key's node) spread too. *)
let home t k = (k * 0x278DDE6E5FD29F05) lsr t.shift

let rec probe keys k i =
  let x = Array.unsafe_get keys i in
  if x = k then i
  else if x = vacant then -1
  else probe keys k ((i + 1) land (Array.length keys - 1))

let index t k = probe t.keys k (home t k)

let find t k =
  let i = index t k in
  if i < 0 then raise Not_found else Array.unsafe_get t.vals i

let find_opt t k =
  let i = index t k in
  if i < 0 then None else Some (Array.unsafe_get t.vals i)

let mem t k = index t k >= 0
let length t = t.size

let insert t k v =
  let i = probe t.keys vacant (home t k) in
  Array.unsafe_set t.keys i k;
  Array.unsafe_set t.vals i v;
  t.size <- t.size + 1

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap vacant;
  t.vals <- Array.make (cap + 1) vals.(Array.length keys);
  t.shift <- t.shift - 1;
  t.size <- 0;
  Array.iteri (fun i k -> if k <> vacant then insert t k vals.(i)) keys

let replace t k v =
  if k = vacant then invalid_arg "Int_table.replace: min_int is not a key";
  let i = index t k in
  if i >= 0 then Array.unsafe_set t.vals i v
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys + 1) v
    else if 2 * (t.size + 1) > Array.length t.keys then grow t;
    insert t k v
  end

(* Fill [hole]: the key at [j] moves back unless its home is in (hole, j]. *)
let rec close t mask hole j =
  let k = t.keys.(j) in
  if k = vacant then begin
    t.keys.(hole) <- vacant;
    t.vals.(hole) <- t.vals.(mask + 1)
  end
  else if (j - home t k) land mask >= (j - hole) land mask then begin
    t.keys.(hole) <- k;
    t.vals.(hole) <- t.vals.(j);
    close t mask j ((j + 1) land mask)
  end
  else close t mask hole ((j + 1) land mask)

let remove t k =
  let i = index t k in
  if i >= 0 then begin
    let mask = Array.length t.keys - 1 in
    t.size <- t.size - 1;
    close t mask i ((i + 1) land mask)
  end

let rec fold_from f t i acc =
  if i = Array.length t.keys then acc
  else
    let k = t.keys.(i) in
    fold_from f t (i + 1) (if k = vacant then acc else f k t.vals.(i) acc)

let fold f t acc = fold_from f t 0 acc

let reset t =
  Array.fill t.keys 0 (Array.length t.keys) vacant;
  t.vals <- [||];
  t.size <- 0
