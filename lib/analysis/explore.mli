(** Stateless model checking of the example workloads over the sim
    engine's same-instant choice points.

    Every schedule is a fresh execution of a workload's prepare function
    ({!Scenarios}), driven event by event; at each instant with two or
    more enabled events the explorer picks an order, enumerating
    alternatives depth-first.  Three reductions keep the enumeration
    tractable:

    - {b dynamic partial-order reduction}: an alternative is deferred
      only when the memory accesses of its causal cone (the event plus
      everything it transitively schedules, taken from the observed
      run) conflict with another enabled event's cone under the PR-1
      dependence relation — overlapping bytes of one segment, not both
      loads;
    - {b sleep sets}: alternatives already explored at a choice point
      stay asleep in sibling branches until a conflicting access fires;
    - {b trace-equivalence hashing}: runs whose access traces have the
      same Foata normal form are explored once.

    Each distinct execution is checked for deadlock (drained queue,
    unfinished workload — reported with the engine's blocked-waiter
    registry), uncaught exceptions, divergence, workload invariant
    violations, linearizability of the captured operation history
    ({!Linearize} over {!Monitor.history}), and — relative to the FIFO
    baseline — new races and new lint findings.  Failures carry a
    {!Schedule.t} certificate that {!replay} re-executes
    deterministically. *)

type config = {
  budget : int;  (** maximum schedules to execute *)
  max_depth : int;  (** branch at most this many choice points deep *)
  max_events : int;  (** per-run step bound; beyond it a run diverged *)
}

val default_config : config
(** 2000 schedules, depth 64, 50k events per run. *)

type failure =
  | Deadlock of string  (** the engine's blocked-waiter report *)
  | Exception of string
  | Diverged
  | Invariant_violated of string  (** the violated invariant's name *)
  | Non_linearizable of string
      (** {!Linearize} found no valid linearization of the execution's
          operation history; carries the minimized witness *)
  | New_race of string  (** a race the FIFO baseline does not have *)
  | New_finding of string  (** a lint rule the FIFO baseline does not fire *)

type outcome = {
  schedule : Schedule.t;  (** certificate reproducing this execution *)
  choice_points : int;
  failure : failure option;
}

val outcome_status : outcome -> string * string
(** [("ok", "")], or the failure's kind — ["deadlock"], ["exception"],
    ["diverged"], ["invariant"], ["linearizability"], ["race"] or
    ["finding"] — and its description. *)

type stats = {
  mutable executed : int;  (** schedules actually run *)
  mutable distinct : int;  (** distinct trace-equivalence classes *)
  mutable redundant : int;  (** hash-pruned duplicate executions *)
  mutable pruned_dpor : int;  (** alternatives proven independent *)
  mutable pruned_sleep : int;  (** alternatives asleep from a sibling *)
  mutable deferred : int;  (** alternatives queued for exploration *)
  mutable failing : int;  (** distinct failing schedules *)
  mutable max_choice_points : int;
  mutable budget_exhausted : bool;
}

type result = {
  workload : string;
  stats : stats;
  baseline : outcome;  (** the FIFO schedule's outcome *)
  failures : outcome list;  (** first failing schedules, capped at 16 *)
}

exception Certificate_mismatch of string
(** A replayed certificate disagreed with the run it directs (wrong
    enabled count at a choice point). *)

val explore :
  ?config:config -> string -> (unit -> Scenarios.prep) -> result
(** [explore name prepare] — exhaustively explore the schedules of the
    workload [prepare] builds, within the configured bounds; [name]
    labels the result. *)

val replay :
  ?config:config -> (unit -> Scenarios.prep) -> Schedule.t -> outcome
(** Re-execute one certified schedule (plus the FIFO baseline, for the
    differential race/finding classification) and report its outcome.
    Deterministic: the same certificate always reproduces the same
    failure. *)

val confirm :
  ?config:config ->
  kind:string ->
  (unit -> Scenarios.prep) ->
  result ->
  (outcome, string) Stdlib.result
(** The seeded-bug contract on [prepare]'s exploration: a clean FIFO
    baseline, a reported failure of [kind] ({!outcome_status}), and the
    first such failure, returned, replaying to [kind]. *)
