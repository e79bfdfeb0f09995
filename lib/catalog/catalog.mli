(** The workload catalog: one record per workload name, holding its
    builders, its declared access programs, and the verdict each checker
    expects of it. [rnet race|model|lin|proto|chaos|obs|trace -w]
    resolve names against these views only, so adding a workload is one
    entry here. *)

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
type trace = { replay : unit -> Experiments.Traced.run; decomposes : bool }

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

val lin : (string * history) list
(** Grouped by {!source}; a name may carry two histories. *)

val proto : program list
(** Grouped by kind; a name may carry two programs. *)

val chaos_matrix :
  (string * campaign) list -> (string * Faults.Campaign.workload * leg) list
(** The legs of the given campaigns, grouped by fault class, each class
    in seed order. *)
