(** Ablation B: read latency vs transfer size — where control transfer
    amortizes (the HY/DX ratio shrinking toward 1 as size grows). *)

val run : unit -> Metrics.Table.t
