(** Ablation G: the same name lookup served by pure data transfer,
    Active Messages, and RPC — the §6 design space. *)

val run : unit -> Metrics.Table.t
