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

val underflow : t -> int
(** Samples below [least] (kept out of the bucket array).
    Test-only: the histogram unit tests. *)

val params : t -> float * float * int
(** [(least, growth, buckets)] — the bucket layout.
    Test-only: the tests read the bucket growth factor. *)

val buckets : t -> (float * int) list
(** Non-empty buckets as [(upper_edge, count)], ascending — the raw
    material a registry needs to aggregate per-node histograms.
    Test-only: the registry tests compare merged and whole histograms. *)

val merge : t -> t -> t
(** Histogram of the concatenation of the two streams. Requires
    identical bucket layouts; raises [Invalid_argument] otherwise. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]]: upper edge of the bucket
    containing the p-th percentile (approximate by bucket resolution). *)

val median : t -> float
(** Test-only: the histogram unit tests. *)
