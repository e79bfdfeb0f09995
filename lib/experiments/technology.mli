(** Ablation H: the HY/DX comparison rerun on a next-generation machine
    (5x CPU, 622 Mb/s fabric) — does the separation dividend survive the
    technology trend the paper bets on? *)

val run : unit -> Metrics.Table.t
