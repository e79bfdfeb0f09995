(** Traced replays of the example workloads: each runs the example's
    operation sequence with a tracer and metrics registry attached and
    returns both (finalized) for export and assertion. *)

type run = { trace : Obs.Trace.t; registry : Obs.Registry.t }

val quickstart : unit -> run
(** Two nodes: named export/import, WRITE with notification, READ back,
    a winning and a losing CAS. *)

val name_service : unit -> run
(** Three nodes: batch export, probing and control-transfer imports,
    revoke/re-export, stale-generation recovery. *)

val producer_consumer : unit -> run
(** The CAS/WRITE/notification ring, two producers, one consumer. *)

val file_service : unit -> run
(** DFS clerk fetches through DX and Hybrid-1 against the warmed server
    (fixture warm-up happens before the tracer attaches). *)
