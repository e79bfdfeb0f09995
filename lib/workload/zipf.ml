(* Zipf-distributed sampling for skewed file popularity.

   A draw [u] maps to the first rank whose CDF covers it.  A guide
   table (cut-point index) cuts [0, 1] into [n] equal buckets by [u *.
   n], truncated, and keeps for each bucket the first rank whose CDF
   lies in that bucket or a later one: every [u] of the bucket needs at
   least that rank, so a draw starts there and steps up, about one step
   on average, where a binary search took log n.  The bucket is
   computed by the same float operation at both ends, so the table is
   exact with no rounding margin. *)

type t = { cdf : float array; cuts : float; guide : int array }

let bucket cuts x = int_of_float (x *. cuts)

let create ?(exponent = 1.05) n =
  if n <= 0 then invalid_arg "Zipf.create: need a positive population";
  let weights =
    Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** exponent))
  in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf.(n - 1) <- 1.0;
  let cuts = float_of_int n in
  (* Bucket [n] holds only a draw of 1.0, or one that rounds there. *)
  let guide = Array.make (n + 1) 0 in
  let rank = ref 0 in
  for j = 0 to n do
    while bucket cuts cdf.(!rank) < j do
      incr rank
    done;
    guide.(j) <- !rank
  done;
  { cdf; cuts; guide }

let index t u =
  let rank = ref t.guide.(bucket t.cuts u) in
  while t.cdf.(!rank) < u do
    incr rank
  done;
  !rank

let sample t prng = index t (Sim.Prng.float prng)
let cdf t = Array.copy t.cdf
