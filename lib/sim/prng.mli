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
