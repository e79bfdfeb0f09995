(** Table 2: performance of the remote memory operations (latencies,
    block throughput, notification overhead) against the paper's
    measurements. *)

val run : unit -> Metrics.Table.t
