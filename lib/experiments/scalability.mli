(** Ablation A: scalability with client count — server utilization and
    client latency under the Table 1a mix, HY vs DX. *)

val run : unit -> Metrics.Table.t
