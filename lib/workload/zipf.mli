(** Zipf-distributed sampling for skewed file popularity. *)

type t

val create : ?exponent:float -> int -> t
(** Population of [n] ranks with weight 1/rank^exponent
    (default exponent 1.05). *)

val sample : t -> Sim.Prng.t -> int
(** A rank in [\[0, n)], low ranks most popular: {!index} of one uniform
    draw. *)

val index : t -> float -> int
(** [index t u], for [u] in [\[0, 1\]]: the first rank whose CDF is at
    least [u], found through a guide table in O(1) expected steps.
    Test-only: the guide table's answer for a chosen draw, where {!sample}
    takes its draw from the PRNG. *)

val cdf : t -> float array
(** A copy of the cumulative distribution, rank by rank; the last is 1.
    Test-only: the distribution itself, which {!sample} only draws from. *)
