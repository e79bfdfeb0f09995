(** Table 1a: summary of NFS RPC activity — the paper's measured op mix
    next to our scaled synthetic trace. *)

val run : unit -> Metrics.Table.t
(** Seed 11; the trace holds Table 1a's call count divided by 1000. *)

(** {1 Span-derived latency decomposition} *)

val decompose : unit -> Metrics.Table.t
(** One unloaded 1 KB WRITE / READ / CAS between two nodes, measured
    both directly (engine clock around the operation) and from the
    tracer's span tree: one row per op with its phases, each span total
    banded within 1% of the direct timing, and the span tree's validity
    ([valid]) banded true. *)
