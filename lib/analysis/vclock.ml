(* Immutable vector clocks as int arrays indexed by agent id; missing
   components read as zero so clocks grow as agents appear. *)

type t = int array

let empty = [||]

let get c i = if i < Array.length c then c.(i) else 0

let tick c i =
  let out = Array.make (Stdlib.max (Array.length c) (i + 1)) 0 in
  Array.blit c 0 out 0 (Array.length c);
  out.(i) <- out.(i) + 1;
  out

let join a b =
  let n = Stdlib.max (Array.length a) (Array.length b) in
  Array.init n (fun i -> Stdlib.max (get a i) (get b i))

let leq a b =
  let rec go i = i >= Array.length a || (a.(i) <= get b i && go (i + 1)) in
  go 0

type order = Equal | Before | After | Concurrent

let compare a b =
  match (leq a b, leq b a) with
  | true, true -> Equal
  | true, false -> Before
  | false, true -> After
  | false, false -> Concurrent
