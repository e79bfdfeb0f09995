(* Zipf-distributed sampling for skewed file popularity. *)

type t = { cdf : float array }

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
  { cdf }

let sample t prng =
  let u = Sim.Prng.float prng in
  (* Binary search for the first index whose cdf covers u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length t.cdf - 1)
