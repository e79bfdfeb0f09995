(** Table 1b: breakdown of NFS RPC traffic into control and data. *)

type row = { label : string; control_kb : float; data_kb : float; ratio : float }

type result = {
  rows : row list;
  total : row;
  paper_write_ratio : float;
  paper_overall_ratio : float;
  paper_control_fraction : float;
}

val run : unit -> result

val control_fraction : result -> float
(** Control bytes as a fraction of all bytes (paper: ~0.12).
    Test-only: the Table 1b band test. *)

val write_ratio : result -> float
(** Control/data for the Write row (paper: 0.01).
    Test-only: the Table 1b band test. *)

val render : result -> string
