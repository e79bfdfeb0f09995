(** Time-series sampling of live gauges: the telemetry plane's view of a
    run {e while it happens} — queue depths, window occupancy, drop
    bursts — where {!Registry} only aggregates at the end.

    A sampler is an ordinary engine event that re-schedules itself every
    [interval] and reads every registered gauge into a per-gauge ring
    buffer.  {b Perturbation freedom} is a contract, asserted by test:
    gauge thunks must only read state (never send, signal, draw from a
    PRNG, or spawn), so a run's behavior — down to the fault plane's
    event digest — is bit-identical with sampling on or off.  The loop
    parks itself when the event queue is otherwise empty, so quiescence
    and deadlock detection happen exactly as without it.

    Whole-run aggregates are exact regardless of run length; the ring
    keeps the most recent [capacity] samples for windowed SLO clauses
    and sparklines. *)

type config = { interval : Sim.Time.t; capacity : int }

val default_config : config
(** 50 us interval, 2048-sample rings. *)

type t

val create : ?config:config -> Sim.Engine.t -> t
(** Raises [Invalid_argument] on a non-positive interval or capacity. *)

val config : t -> config

val register : t -> string -> (unit -> float) -> unit
(** Add a named gauge; the thunk is read once per tick, in registration
    order. The thunk must be read-only (see the perturbation contract
    above). Raises [Invalid_argument] on a duplicate name. *)

val start : t -> unit
(** Begin sampling at the current instant. Idempotent while running. *)

val stop : t -> unit
(** Stop after the current tick; {!start} may be called again. *)

val running : t -> bool
(** Test-only: that the sampler parks itself at quiescence, which no report
    shows. *)

val gauges : t -> string list
(** Registration order. *)

val ticks : t -> int
(** Sampling instants so far. *)

(** {1 Reading the series} *)

type stat = {
  count : int;
  first : float;
  last : float;
  min : float;
  max : float;
  mean : float;
}

val stat : t -> string -> stat option
(** Whole-run exact aggregate; [None] for an unknown or never-sampled
    gauge. *)

val samples : t -> string -> (float * float) list
(** Ring contents as [(time_us, value)], oldest first — at most
    [capacity] points.
    Test-only: the ring's bound, which reports show only through {!rate} and
    {!sparkline}. *)

val window : t -> string -> Sim.Time.t -> (float * float) list
(** The trailing [span] of {!samples}, measured back from the latest
    retained sample.
    Test-only: the window's edges, which reports show only through {!rate}. *)

val rate : ?window:Sim.Time.t -> t -> string -> float option
(** Per-second slope of a cumulative-counter gauge across the retained
    ring (or its trailing window): [None] with fewer than two points or
    no elapsed time. *)

(** {1 Rendering} *)

val sparkline : t -> string -> string
(** The ring as a unicode block-glyph trend line (empty for unknown or
    unsampled gauges). *)
