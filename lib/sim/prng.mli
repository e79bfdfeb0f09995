(** Deterministic splittable PRNG (splitmix64).

    Each stochastic component of a simulation should {!split} its own
    stream off the root so that adding components never perturbs the
    draws seen by the others. *)

type t

val create : int -> t
(** Seeded stream. Equal seeds give identical streams. *)

val split : t -> t
(** Derive an independent stream; advances the parent once. *)

val int : t -> int -> int
(** Uniform in [\[0, bound)]. Raises [Invalid_argument] if [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Test-only: the PRNG unit tests. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean.
    Test-only: the PRNG unit tests. *)
