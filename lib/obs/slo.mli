(** Declarative service-level objectives, evaluated against the metrics
    {!Registry} and the sampled {!Timeseries} — the CI teeth of the
    telemetry plane.

    A spec is plain text, one clause per line, [#] comments allowed:

    {v
    p99 recover:read < 400 us         # latency percentile, microseconds
    counter faults.drops <= 0         # final registry counter
    rate faults.drops < 500           # counter slope per second
    max nic.0.rx_fifo < 1024          # sampled gauge, whole run
    mean switch.depth < 4 over 5 ms   # ... or a trailing window
    last rmem.0.inflight <= 0
    v}

    Comparators are [<] [<=] [>] [>=]. Gauge stats are [max], [mean],
    [last]. Gauge and rate clauses accept [over N us|ms|s] to restrict
    evaluation to the trailing window of retained samples.

    Evaluation {b fails closed}: a clause whose source is missing (op
    never timed, gauge never sampled) is a violation carrying a
    diagnosis, never a silent pass. *)

type stat = Max | Mean | Last

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

type verdict = {
  clause : clause;
  value : float option;  (** [None] when the source was missing *)
  ok : bool;
  detail : string;  (** measured comparison, or why it could not be *)
}

val parse : string -> (spec, string) result
(** Parse a whole spec; [Error] aggregates every bad line. *)

val clause_to_string : clause -> string

(** {1 Evaluation} *)

type context = {
  registry : Registry.t option;
  series : Timeseries.t option;
  duration : Sim.Time.t;
      (** whole-run span; the denominator for unwindowed [rate] clauses
          when no sampled series covers the counter *)
}

val eval : context -> spec -> verdict list
(** One verdict per clause, in spec order. *)

val violations : verdict list -> verdict list

val render : verdict list -> string
(** One line per verdict: ok/FAIL, the clause, the measurement. *)
