(** The [rnet repro] experiments in the paper's order: name, one-line
    description, and the run that returns its report. *)

val all : (string * string * (unit -> Metrics.Table.t)) list
