(** Ablation F: Ivy-style SVM vs remote memory under false sharing and
    under read-mostly sharing (§6's related-work argument). *)

val run : unit -> Metrics.Table.t
