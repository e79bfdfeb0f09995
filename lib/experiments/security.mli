(** Ablation E: Table-2 micro-operations under no / hardware / software
    link encryption (§3.5). *)

val run : unit -> Metrics.Table.t
