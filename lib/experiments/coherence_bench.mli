(** Ablation D: token coherence via remote CAS (no server control
    transfer) versus an RPC token service — acquire latency and server
    CPU per acquire/release pair. *)

val run : unit -> Metrics.Table.t
