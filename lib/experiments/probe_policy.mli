(** Ablation C: remote probing vs control transfer for name lookups
    across hash-collision chain lengths; the paper expects the
    crossover near seven collisions. *)

val run : unit -> Metrics.Table.t
