(** Zipf-distributed sampling for skewed file popularity. *)

type t

val create : ?exponent:float -> int -> t
(** Population of [n] ranks with weight 1/rank^exponent
    (default exponent 1.05). *)

val sample : t -> Sim.Prng.t -> int
(** A rank in [\[0, n)], low ranks most popular. *)
