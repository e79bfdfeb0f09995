(** Table 1b: breakdown of NFS RPC traffic into control and data, with
    the paper's write ratio (0.01), overall ratio (0.14) and control
    share (~12%) as banded notes. *)

val run : unit -> Metrics.Table.t
