(** Figure 2: client-seen request latency, HY vs DX, for the twelve
    representative operations. *)

val run : unit -> Metrics.Table.t
