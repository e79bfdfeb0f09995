(** The paper's headline: ~50% server-load reduction when the Table 1a
    mix moves from Hybrid-1 to pure data transfer. *)

val run : unit -> Metrics.Table.t
