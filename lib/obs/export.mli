(** Artifact rendering for traces. Both finalize the trace first. *)

val chrome_json : Trace.t -> string
(** Chrome trace-event JSON ([chrome://tracing] / Perfetto loadable):
    one complete ("X") event per span, pid = node, tid = trace id,
    after one process-name row per pid in ascending pid order. *)

val render_tree : Trace.t -> string
(** Plain-text indented span trees, one block per root. *)
