(** Declarative service-level objectives, evaluated against the metrics
    {!Registry} and the sampled {!Timeseries} — the CI teeth of the
    telemetry plane.

    A spec is plain text, one clause per line, [#] comments allowed:

    {v
    p99 recover:read < 400 us         # latency percentile, microseconds
    counter faults.drops <= 0         # final registry counter
    rate faults.drops < 500 over 5 ms # sampled counter's slope per second
    max nic.0.rx_fifo < 1024          # sampled gauge, whole run
    last rmem.0.inflight <= 0
    v}

    Comparators are [<] [<=] [>] [>=]. Gauge stats are [max] and [last].
    A rate clause accepts [over N us|ms] to restrict evaluation to the
    trailing window of retained samples.

    Evaluation {b fails closed}: a clause whose source is missing (op
    never timed, gauge never sampled) is a violation carrying a
    diagnosis, never a silent pass. *)

type stat = Max | Last

type source =
  | Latency of { op : string; percentile : float }
  | Counter of string
  | Rate of string
  | Gauge of { name : string; stat : stat }

type cmp = Lt | Le | Gt | Ge

type clause = {
  text : string;  (** the source line, trimmed *)
  source : source;
  cmp : cmp;
  bound : float;
  window : Sim.Time.t option;
}

type spec = clause list

val parse : string -> (spec, string) result
(** Parse a whole spec; [Error] aggregates every bad line. *)

(** {1 Evaluation} *)

type context = { registry : Registry.t option; series : Timeseries.t option }

val eval : context -> spec -> Metrics.Table.t
(** One row per clause, in spec order: the clause, its measurement
    banded by the clause's comparator ({!Metrics.Table.Missing}, which
    fails any band, when the source was missing), and the comparison
    made or why none could be. {!Metrics.Table.violations} names every
    clause that does not hold. *)
