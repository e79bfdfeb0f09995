(** Artifact rendering for traces. *)

val chrome_json : Trace.t -> string
(** Chrome trace-event JSON ([chrome://tracing] / Perfetto loadable):
    one complete ("X") event per span, pid = node, tid = trace id,
    after one process-name row per pid in ascending pid order. *)
