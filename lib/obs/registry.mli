(** The cluster-wide metrics registry: named counters plus one latency
    histogram (microseconds) per (node, segment, op).

    Every series shares one bucket layout, so per-node histograms
    aggregate cluster-wide with {!Metrics.Histogram.merge}. *)

type series_key = { node : int; seg : int; op : string }

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
val counter : t -> string -> float
(** 0 if never incremented. *)

val counters : t -> (string * float) list
(** All counters, sorted by name. *)

(** {1 Latency series} *)

val observe : t -> node:int -> seg:int -> op:string -> float -> unit
(** Record one latency sample (microseconds) for the series. *)

val aggregate : t -> op:string -> Metrics.Histogram.t option
(** Merge every node's histogram for [op] into one cluster-wide series. *)

val report : t -> string
(** Plain-text report: per-op cluster aggregates with p50/p95/p99, the
    top-N series by sample count, and all counters. *)
