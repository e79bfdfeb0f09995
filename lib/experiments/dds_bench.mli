(** Campaign: the hash table, ticket queue and ABD register of {!Dds},
    each in all three structurings (DX / RPC / hybrid), at two
    operating points on a 32-host Clos fabric: pure data transfer must
    win the low-contention lookup-heavy leg, control transfer (RPC or
    the hybrid's fallback) the high-contention mutation-heavy leg. *)

type point = {
  structure : string;  (** "hashtable" | "queue" | "register" *)
  kind : string;  (** "dx" | "rpc" | "hybrid" *)
  leg : string;  (** "low" | "high" *)
  clients : int;
  mutate_pct : int;  (** mutation share of the op mix *)
  ops : int;  (** completed operations across all clients *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  cas_losses : int;  (** optimistic claims lost to concurrent clients *)
  rpc_fallbacks : int;  (** hybrid operations that left the data plane *)
  switch_drops : int;  (** summed over every switch in the fabric *)
}

val sweep : unit -> point list
(** Every (structure, kind, leg) point: 2 clients at Zipf(0.2) with 5%
    mutations on the low leg, 12 at Zipf(1.5) with 80% on the high,
    24 operations per client, seed 10.
    Test-only: a sweep's raw points, which the report shows only as rendered
    cells. *)

val report : point list -> Metrics.Table.t
(** The report of [points]. Its bands: every point completed operations
    with a positive mean latency, and the crossover (DX beats RPC on the
    low leg; RPC or the hybrid beats DX on the high leg, by mean
    latency) holds on at least two structures — so points of one
    structure alone cannot clear it.
    Test-only: the crossover band failing on a sweep of one structure, which
    no full sweep is. *)

val run : unit -> Metrics.Table.t
(** [report (sweep ())]. *)
