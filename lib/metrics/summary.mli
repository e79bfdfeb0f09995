(** Streaming summary statistics over a sequence of floats
    (count, total, mean, sample variance, min, max) using Welford's
    numerically stable update. *)

type t

val create : unit -> t
val add : t -> float -> unit

val count : t -> int
(** Test-only: the summary unit tests. *)

val total : t -> float
(** Test-only: the summary unit tests. *)

val mean : t -> float
val min : t -> float
val max : t -> float
val variance : t -> float
(** Sample variance (n-1 denominator); 0 when fewer than two samples.
    Test-only: the summary unit tests. *)

val merge : t -> t -> t
(** Exact summary of the concatenation of two streams. *)

val percentile : float array -> float -> float
(** [percentile sorted p], [p] in [\[0,1\]]: the exact order statistic
    [sorted.(floor (p (n-1)))] of ascending samples; 0 when empty. *)

val pp : Format.formatter -> t -> unit
(** Test-only: the metrics unit tests. *)
