(** The workload catalog: one record per workload name, holding its
    builders, its declared access programs, and the verdict each checker
    expects of it. [rnet race|model|lin|proto|chaos|obs|trace -w]
    resolve names against these views only, so adding a workload is one
    entry here. *)

module Body = Body
(** The example workloads, one body each. *)

type prepare = unit -> Analysis.Scenarios.prep

type race = { prepare : prepare; races : bool; findings : bool }
(** A FIFO run reports races (findings) exactly when [races]
    ([findings]) is set. *)

type expect = Clean | Fails of string
type model = { prepare : prepare; expect : expect }
(** Exploration finds no failing schedule, or failures of the given
    kind ({!Analysis.Explore.outcome_status}). *)

(** A history that must be linearizable: a FIFO scenario run, reported
    under [source], or the campaign under the empty plan. *)
type history =
  | Fifo of { source : string; prepare : prepare }
  | Fault_free of Faults.Campaign.workload

type program = {
  kind : string;  (** scenario, campaign, bench, shard or dds *)
  program : Workload.Program.t;  (** named after its entry *)
  rules : string list;  (** the exact static rules it trips *)
  ordered : bool;  (** pipelining verdict ordered, not batchable *)
  confirm : (prepare * string) option;
      (** exploring this workload confirms the finding, as this kind *)
}

type leg = { label : string; plan : Faults.Plan.t; seed : int; chain : bool }
(** A chaos CI leg: it survives, converges and replays its digest, and
    with [chain] shows staleness, revalidation and recovery. [seed] is
    pinned: the leg's fault digest depends on it. *)

type campaign = { run : Faults.Campaign.workload; legs : leg list }

type replay = {
  spans : Obs.Trace.t;
  registry : Obs.Registry.t;
  verdict : Body.verdict;
}
(** A body's silent run under the tracer and a metrics registry, both
    finalized, with the body's own verdict. *)

type trace = { replay : unit -> replay; decomposes : bool }

type t = {
  name : string;
  doc : string;
  race : race option;  (** [None] or [[]]: the checker skips it *)
  model : model option;
  lin : history list;
  proto : program list;
  campaign : campaign option;  (** chaos, obs and the chaos CI matrix *)
  trace : trace option;
}

val all : t list

(** {1 Views}: each checker's workloads in catalog order *)

val race : (string * race) list
val model : (string * model) list
val campaigns : (string * campaign) list
val trace : (string * trace) list
val source : history -> string
(** ["campaign"] for a fault-free history, else its FIFO source.
    Test-only: the catalog tests check the lin view's grouping by it. *)

val lin : (string * history) list
(** Grouped by {!source}; a name may carry two histories. *)

val proto : program list
(** Grouped by kind; a name may carry two programs. *)

val chaos_matrix :
  (string * campaign) list -> (string * Faults.Campaign.workload * leg) list
(** The legs of the given campaigns, grouped by fault class, each class
    in seed order. *)

(** {1 Checks}

    Each checker's run of one view entry as a {!Metrics.Table} report.
    An expectation is the band on the cell it constrains: the entry's
    own under [~ci:true], a clean run's otherwise (no race, no failing
    schedule, no rule tripped). A text or flag expectation is an
    {!Metrics.Table.Is} band. *)

val race_report : ci:bool -> string * race -> Metrics.Table.t
(** A FIFO run's races and lint findings as rows; the race and finding
    counts banded [Ge 1] where expected, [Le 0] otherwise. *)

val model_report :
  ?config:Analysis.Explore.config -> ci:bool -> string * model -> Metrics.Table.t
(** The explored schedules: the baseline and failures as rows, the
    statistics as a note. [Clean] bands the failing count [Le 0];
    [Fails kind] bands the count of failures of [kind] [Ge 1] and
    confirms the first ({!Analysis.Explore.confirm}). *)

val replay_report : string -> Analysis.Explore.outcome -> Metrics.Table.t
(** One replayed certificate, whose status must read "ok". *)

val lin_report :
  mode:Analysis.Linearize.mode -> string * history -> Metrics.Table.t
(** The history's status ("ok", "violation", or "error" when its
    campaign diverged) banded "ok"; a violation's witness as rows. *)

val proto_report : ci:bool -> program -> Metrics.Table.t
(** The static findings as rows; the tripped rule set and, under [ci],
    the pipelining verdict banded by the entry, and a [confirm]ed
    finding cross-checked by exploration. *)

val chaos_report : leg -> Faults.Campaign.workload -> Metrics.Table.t
(** The leg run twice: survived, converged and replayed (equal
    digests) must hold, and chained with [chain]; then its counters. *)
