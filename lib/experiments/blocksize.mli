(** Ablation B: read latency vs transfer size — where control transfer
    amortizes (the HY/DX ratio shrinking toward 1 as size grows). *)

type point = { bytes : int; hy_us : float; dx_us : float; ratio : float }

type result = point list

val run : unit -> result
val render : result -> string
