(* Streaming summary statistics (Welford's algorithm). *)

type t = {
  mutable n : int;
  mutable mean : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0; mean = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let mean t = if t.n = 0 then nan else t.mean
let min t = if t.n = 0 then nan else t.min
let max t = if t.n = 0 then nan else t.max

let merge a b =
  let t = create () in
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let nf = float_of_int n in
    t.n <- n;
    t.mean <- a.mean +. (delta *. float_of_int b.n /. nf);
    t.min <- Float.min a.min b.min;
    t.max <- Float.max a.max b.max;
    t
  end

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 rank))
