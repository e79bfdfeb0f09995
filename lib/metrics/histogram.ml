(* Fixed-resolution latency histograms with approximate percentiles.

   Buckets grow geometrically from [least] so that relative resolution is
   constant across the (microsecond .. second) range the experiments span. *)

type t = {
  least : float;
  growth : float;
  counts : int array;
  mutable underflow : int;
  mutable n : int;
  summary : Summary.t;
}

let bucket_count = 128

let create ?(least = 0.1) ?(growth = 1.15) () =
  if least <= 0. then invalid_arg "Histogram.create: least must be positive";
  if growth <= 1. then invalid_arg "Histogram.create: growth must exceed 1";
  {
    least;
    growth;
    counts = Array.make bucket_count 0;
    underflow = 0;
    n = 0;
    summary = Summary.create ();
  }

let bucket_of t x =
  if x < t.least then -1
  else
    let b = int_of_float (Float.log (x /. t.least) /. Float.log t.growth) in
    Stdlib.min b (Array.length t.counts - 1)

let bucket_upper t i = t.least *. (t.growth ** float_of_int (i + 1))

let add t x =
  t.n <- t.n + 1;
  Summary.add t.summary x;
  match bucket_of t x with
  | -1 -> t.underflow <- t.underflow + 1
  | b -> t.counts.(b) <- t.counts.(b) + 1

let count t = t.n
let summary t = t.summary
let merge a b =
  if
    a.least <> b.least || a.growth <> b.growth
    || Array.length a.counts <> Array.length b.counts
  then invalid_arg "Histogram.merge: incompatible bucket layouts";
  {
    least = a.least;
    growth = a.growth;
    counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
    underflow = a.underflow + b.underflow;
    n = a.n + b.n;
    summary = Summary.merge a.summary b.summary;
  }

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  if t.n = 0 then nan
  else begin
    let target = int_of_float (Float.round (p /. 100. *. float_of_int t.n)) in
    let target = Stdlib.max 1 (Stdlib.min t.n target) in
    let seen = ref t.underflow in
    if !seen >= target then t.least
    else begin
      let result = ref (Summary.max t.summary) in
      let last = Array.length t.counts - 1 in
      (try
         for i = 0 to last do
           seen := !seen + t.counts.(i);
           if !seen >= target then begin
             (* The final bucket also holds the overflow beyond the
                representable range; its true upper edge is the max. *)
             result :=
               (if i = last then Summary.max t.summary else bucket_upper t i);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end
