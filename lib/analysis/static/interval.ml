(* Closed integer intervals — the abstract domain for segment offsets
   and extents.  Every program expression (constants, loop variables,
   declared-range word reads, sums and products of those) evaluates to
   one of these; bounds checks compare interval endpoints against
   manifest extents. *)

type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let exact n = { lo = n; hi = n }

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

let mul a b =
  let products = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
  {
    lo = List.fold_left min max_int products;
    hi = List.fold_left max min_int products;
  }

let is_exact t = t.lo = t.hi

let to_string t =
  if is_exact t then string_of_int t.lo
  else Printf.sprintf "[%d,%d]" t.lo t.hi
