(** Recovery campaigns: end-to-end workload bodies under a fault plan.

    The harness ({!workload}) builds each run's testbed, installs a
    {!Plane} from the given plan and seed, runs the body to quiescence
    and reports its final-state convergence verdict. Outcomes carry the
    plane's event digest: running the same (workload, plan, seed) twice
    must produce equal digests — the determinism/replay contract
    [chaoscheck] and the @faults tests assert. *)

type outcome = {
  workload : string;
  seed : int;
  survived : bool;  (** ran to quiescence: no deadlock, no escaped error *)
  converged : bool;  (** the workload's final-state check passed *)
  detail : string;  (** diagnosis when not survived/converged *)
  digest : int;  (** {!Plane.digest} — the replay witness *)
  events : int;  (** injected faults *)
  retries : float;  (** policy-driven reissues ([rmem.retries]) *)
  recovered : float;  (** ops that succeeded after retrying *)
  revalidations : float;  (** descriptor re-imports on staleness *)
  gave_up : float;  (** ops abandoned after exhausting a policy *)
  counters : (string * float) list;  (** the full registry *)
  registry : Obs.Registry.t;
      (** the live registry — latency series included, for SLO gates *)
  timeseries : Obs.Timeseries.t option;
      (** the run's sampler, when one was requested *)
  engine_events : int;
      (** every simulator event the run fired — the denominator of the
          host-time events/sec baseline ([bench --host]) *)
}

type workload =
  plan:Plan.t ->
  seed:int ->
  sampler:Sim.Time.t option ->
  observe:(Cluster.Testbed.t -> unit) ->
  outcome
(** A campaign workload; call it through {!run}. *)

val workload :
  string ->
  nodes:int ->
  (Cluster.Testbed.t -> Rmem.Remote_memory.t array -> (unit, string) result) ->
  workload
(** [workload name ~nodes body] is the harness around a body: a fresh
    [nodes]-node testbed, one endpoint per node (in node order), the
    plane and the sampler, then [body] run to quiescence. Its verdict
    is [Ok ()] when the final state converged, [Error detail]
    otherwise; a deadlock or an escaped exception is a non-survival. *)

(** The recovery a campaign body runs under. *)
type hooks = {
  clerk : Rmem.Remote_memory.t -> Names.Clerk.t;
      (** a name clerk on the endpoint, serving lookups; its probes
          time out after 2 ms *)
  retry : 'a. (unit -> 'a) -> 'a;
      (** around a name-service call: reissue on a timeout, an error
          status or an unknown name, after a pause *)
  policy :
    Names.Clerk.t -> hint:Atm.Addr.t -> string -> Rmem.Recovery.policy option;
      (** for the data operations on a name's segment: retry, and
          re-import the name on a stale descriptor *)
  timeout : Sim.Time.t option;
      (** the bound on a data operation issued without a policy that
          may go unanswered; [None] here, since the campaign's policy
          bounds every attempt itself *)
}

val hooks : hooks
(** The campaigns' own. *)

(** {1 Workloads}, each documented in its workload-catalog entry *)

val producer_consumer : workload
val replica : workload

val crash_restart : workload
(** Adds its canonical crash/restart schedule ({!crash_plan}) when the
    plan carries none. *)

val run :
  ?plan:Plan.t ->
  ?sampler:Sim.Time.t ->
  ?observe:(Cluster.Testbed.t -> unit) ->
  seed:int ->
  workload ->
  outcome
(** Run one workload (default plan: {!Plan.none}).

    [observe] gets the workload's testbed before any endpoint attaches
    or anything is issued: the place to subscribe to its nodes'
    streams.

    With [sampler] the workload runs under an {!Obs.Timeseries} sampler
    at that interval, every layer's gauges registered (link/switch
    depth and drops, NIC receive FIFOs, per-node in-flight and
    notification backlog, cumulative fault and
    recovery counters); the outcome carries it for SLO evaluation.
    Sampling is perturbation-free: the digest is bit-identical with or
    without it — asserted by the @faults tests. *)

(** {1 Canonical CI plans} *)

val loss_plan : float -> Plan.t
(** Uniform per-frame loss at the given probability. *)

val chaos_plan : float -> Plan.t
(** Loss at the given probability plus corruption, duplication and
    delay-jitter at half of it. *)

val partition_plan : unit -> Plan.t
(** Node 2 isolated during [10 ms, 30 ms) — matches the write schedule
    of the [replica] workload. *)

val crash_plan : unit -> Plan.t
(** Node 1 crashes at 5 ms and restarts (generations bumped) at 8 ms —
    the [crash_restart] workload's canonical schedule. *)
