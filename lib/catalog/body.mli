(** The example workloads, each written once.

    A body runs on a rig and returns its convergence verdict,
    computed from local memory and values the body already holds: it
    issues no remote operation of its own to compute it. The examples
    run a body narrated, [rnet trace] runs it silently under the
    tracer, and [rnet chaos]/[rnet obs] run it through the campaign
    harness with the campaign's recovery hooks. *)

type verdict = (unit, string) result
(** [Ok ()] when the final state is the one the workload promises,
    [Error detail] otherwise. *)

type t
(** A named body. It runs on a rig of its own size: a testbed, one
    endpoint per node, a narrator (silent outside an example) and
    recovery hooks ({!Faults.Campaign.hooks} in a campaign; elsewhere
    plain clerks, no retry or policy, and the example's 5 ms bound on
    its one read that may go unanswered). *)

val quickstart : t
(** Two nodes: named export/import, WRITE with notification, READ back,
    a winning and a losing CAS. *)

val name_service : t
(** Three nodes: batch export, probing and control-transfer imports,
    revoke/re-export, stale-generation recovery. *)

val producer_consumer : t
(** The CAS/WRITE/notification ring: two producers, one consumer. *)

type launch = say:(string -> unit) -> Sim.Engine.t * (unit -> verdict)
(** Build a workload's rig, with its endpoints attached; return its
    engine and the run of its body to quiescence. *)

val launch : t -> launch

val file_service : launch
(** The DFS clerk's operation script under RPC, Hybrid-1 and DX, then a
    cross-client write push. Its rig is the warmed file-service fixture
    (warm-up runs at launch, before the body). *)

val campaign : t -> Faults.Campaign.workload
(** The body under the campaign harness and its hooks, silent, under
    the body's name. *)

val main : ?ends:string -> launch -> unit
(** An example's main: run narrated on stdout; with [ends], then print
    it and the simulated time the run ended at; on an [Error] verdict,
    print the detail on stderr and exit 1. *)
