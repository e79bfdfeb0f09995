(** Streaming summary statistics over a sequence of floats (mean, min,
    max), the mean by Welford's numerically stable update. *)

type t

val create : unit -> t
val add : t -> float -> unit

val mean : t -> float
val min : t -> float
val max : t -> float

val merge : t -> t -> t
(** Exact summary of the concatenation of two streams. *)

val percentile : float array -> float -> float
(** [percentile sorted p], [p] in [\[0,1\]]: the exact order statistic
    [sorted.(floor (p (n-1)))] of ascending samples; 0 when empty. *)
