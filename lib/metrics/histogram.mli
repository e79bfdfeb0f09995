(** Geometric-bucket histograms with approximate percentiles, suited to
    latency distributions spanning microseconds to seconds. *)

type t

val create : ?least:float -> ?growth:float -> unit -> t
(** [least] is the smallest resolvable value (default 0.1), [growth] the
    geometric bucket ratio (default 1.15, i.e. ~15% relative error);
    128 buckets, the last absorbing everything above its bound. *)

val add : t -> float -> unit
val count : t -> int

val summary : t -> Summary.t
(** Exact streaming summary of everything added. *)

val merge : t -> t -> t
(** Histogram of the concatenation of the two streams. Requires
    identical bucket layouts; raises [Invalid_argument] otherwise. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]]: upper edge of the bucket
    containing the p-th percentile (approximate by bucket resolution):
    [least] for a percentile among the samples below [least], and the
    largest sample for one in the last bucket; [nan] when empty. *)
