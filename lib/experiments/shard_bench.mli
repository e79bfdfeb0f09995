(** The scale-out campaign: a Clos fabric of 128+ nodes running a
    Zipf-keyed lookup mix against the sharded name service, next to a
    single-registry baseline at equal load.

    Lookups are pure data transfer (remote READs against the shard the
    cached map names); registration and the mid-campaign rebalance go
    through the reconciler's control plane. The sharded run must beat
    the baseline's p99 lookup latency, keep every switch drop counter
    at zero, and converge after the rebalance with no lost and no
    stale-served registrations — the gates [shardsim --ci] enforces and
    [BENCH_PR9.json] records. *)

type campaign = {
  label : string;
  nodes : int;  (** fabric hosts (Clos capacity) *)
  shards_start : int;  (** shards when the lookup phase opens *)
  shards_end : int;  (** shards after the mid-campaign rebalance *)
  clients : int;
  names : int;
  lookups : int;  (** completed lookup count across all clients *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  switch_drops : int;  (** summed over every switch in the fabric *)
  max_queue_depth : int;  (** worst sampled output-queue depth *)
  epoch : int;  (** final map epoch *)
  live : int;  (** records live across shard mirrors at the end *)
  lost : int;  (** registered names a lookup failed to find *)
  stale_served : int;  (** lookups answered with wrong coordinates *)
  stale_refetches : int;  (** map refetches forced by staleness *)
  mid_splits : int;  (** rebalance splits during the campaign *)
  converged : bool;  (** every client ended on the final epoch *)
  convergence_us : float;
      (** worst client adoption delay after the rebalance publish *)
}

type result = { baseline : campaign; sharded : campaign }

val run : ?seed:int -> unit -> result
(** A 4x8x16 Clos (128 hosts), 8 shard hosts, 48 clients,
    256 names, 16 lookups per client under a Zipf(1.5) key mix,
    seed 9. The baseline leg runs the same load against one shard on
    one host and never rebalances. *)

val smoke : ?seed:int -> unit -> result
(** The golden-file configuration: a 2-spine, 4-leaf, 4-host/leaf
    (16-node) Clos, 4 shard hosts, 10 clients, 48 names, 12 lookups
    per client — small enough for the test suite, still end to end
    and congested enough at the single registry for the sharded leg
    to win its p99 gate. *)

val check : result -> string list
(** Gate violations, empty when healthy: sharded p99 below baseline
    p99, zero switch drops, no lost or stale-served registrations,
    a rebalance that actually split, and full epoch convergence. *)

val to_json : result -> string
val render : result -> string
