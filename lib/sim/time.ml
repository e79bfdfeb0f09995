(* Simulated time.

   Both instants and durations are integer nanoseconds.  Integers keep the
   event queue deterministic (no floating-point tie ambiguity) and give the
   simulation a range of about 292 years, far beyond any experiment here. *)

type t = int

let zero = 0

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let of_us_float f = int_of_float (Float.round (f *. 1_000.))
let of_ms_float f = int_of_float (Float.round (f *. 1_000_000.))

let to_ns t = t
let to_us t = float_of_int t /. 1_000.
let to_ms t = float_of_int t /. 1_000_000.

let add = ( + )
let diff = ( - )
let scale t k = int_of_float (Float.round (float_of_int t *. k))
let mul t n = t * n

let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = Stdlib.( <= ) a b
let ( < ) (a : t) (b : t) = Stdlib.( < ) a b
let ( >= ) (a : t) (b : t) = Stdlib.( >= ) a b
let ( > ) (a : t) (b : t) = Stdlib.( > ) a b

let max = Int.max
let min = Int.min

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (float_of_int t /. 1e9)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if t >= 1_000 then Format.fprintf ppf "%.2fus" (to_us t)
  else Format.fprintf ppf "%dns" t

let to_string t = Format.asprintf "%a" pp t
