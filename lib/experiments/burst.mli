(** Ablation I: block-transfer burst size — the trade between per-frame
    overhead and pipeline granularity that pins [Costs.burst_cells]. *)

val run : unit -> Metrics.Table.t
