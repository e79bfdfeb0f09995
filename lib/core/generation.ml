(* Export generation numbers.

   Each export of a segment gets the node's next generation number, so
   operations carrying an old number can be detected as stale.  The wire
   carries 16 bits; the paper's observation that wraparound is slow
   enough to give clerks latitude in propagating deletions holds here
   too (a node must perform 65535 exports before reuse). *)

type t = int

let bits = 16
let modulus = 1 lsl bits
let invalid = 0
let initial = 1

let next g =
  let n = (g + 1) mod modulus in
  if n = invalid then initial else n

let equal = Int.equal
let to_int g = g

let of_int i =
  if i < 0 || i >= modulus then invalid_arg "Generation.of_int";
  i

let pp ppf g = Format.fprintf ppf "g%d" g
