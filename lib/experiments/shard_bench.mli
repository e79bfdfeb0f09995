(** Campaign: a Clos fabric of 128 hosts running a Zipf-keyed lookup
    mix against the sharded name service, next to a single-registry
    baseline at equal load.

    Lookups are pure data transfer (remote READs against the shard the
    cached map names); registration and the mid-campaign rebalance go
    through the reconciler's control plane. *)

val run : unit -> Metrics.Table.t
(** Both legs, seed 9. Its bands: sharded p99 lookup latency below the
    baseline's, no switch drop, no lost or stale-served registration
    and every name live on either leg, a mid-campaign split that grew
    the shard count, and every client on the final epoch. *)
