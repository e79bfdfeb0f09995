(** Figure 3: server CPU per operation decomposed into data reception /
    control transfer / procedure invocation / data reply, HY vs DX. *)

val run : unit -> Metrics.Table.t
