(** Table 1a: summary of NFS RPC activity — the paper's measured op mix
    next to our scaled synthetic trace. *)

val run : unit -> Metrics.Table.t
(** Seed 11; the trace holds Table 1a's call count divided by 1000. *)

(** {1 Span-derived latency decomposition}

    One unloaded WRITE / READ / CAS between two nodes, measured both
    directly (engine clock around the operation) and from the tracer's
    span tree. The two accountings must agree; the tests hold them to
    within 1%. *)

type phase_row = {
  op : string;
  direct_us : float;
  span_us : float;
  phases : (string * float) list;
}

type decomposition = { phase_rows : phase_row list; trace : Obs.Trace.t }

val decompose : unit -> decomposition
(** 1 KB operations. *)

val render_decomposition : decomposition -> string
