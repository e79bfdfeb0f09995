(* Deterministic splittable PRNG (splitmix64).

   Every stochastic component of the simulation draws from its own split
   stream so that adding a component never perturbs the draws seen by the
   others, keeping experiments reproducible bit-for-bit. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  { state = seed }

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)
(* 30 non-negative bits *)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound <= 1 lsl 30 then bits t mod bound
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next_int64 t) 1) (Int64.of_int bound))

let float t =
  (* 53 random bits mapped to [0, 1). *)
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0
