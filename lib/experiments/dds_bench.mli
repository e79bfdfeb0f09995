(** The distributed data-structure campaign: the hash table, ticket
    queue and ABD register of {!Dds}, each in all three structurings
    (DX / RPC / hybrid), swept over contention (clients x Zipf skew)
    and operation mix on a Clos fabric.

    Two operating points per (structure, kind) pair reproduce the
    paper's crossover at data-structure granularity: pure data transfer
    wins the low-contention lookup-heavy leg, control transfer (RPC or
    the hybrid's fallback) wins the high-contention mutation-heavy leg.
    [ddsbench --ci] gates on the crossover holding for at least
    two of the three structures, and [BENCH_PR10.json]
    records it. *)

type point = {
  structure : string;  (** "hashtable" | "queue" | "register" *)
  kind : string;  (** "dx" | "rpc" | "hybrid" *)
  leg : string;  (** "low" | "high" *)
  clients : int;
  zipf : float;  (** key-mix skew (hash table; 0 = uniform) *)
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

type result = { nodes : int; points : point list }

val structures : string list
(** ["hashtable"; "queue"; "register"] — the sweep's full scope and
    the valid [?structures] elements. *)

val run : ?seed:int -> ?structures:string list -> unit -> result
(** A 2x8x4 Clos (32 hosts); the low leg runs 2 clients at
    Zipf(0.2) with a 5% mutation share, the high leg 12 clients at
    Zipf(1.5) with 80%; 24 operations per client over 8 keys in a
    16-slot table (load factor high enough that mutation churn
    lengthens the probe chains DX pays for one wire transaction per
    step).  [structures] restricts the sweep (unknown names raise
    [Invalid_argument]). *)

val smoke : ?seed:int -> ?structures:string list -> unit -> result
(** The golden-file configuration: a 2x4x4 (16-host) Clos, 2 vs 10
    clients, 16 operations per client — small enough for the test
    suite, still concurrent enough to reproduce the crossover. *)

val check : result -> string list
(** Gate violations, empty when healthy: every point completed
    operations with positive latency, and the crossover (DX wins the
    low leg against RPC; RPC or hybrid wins the high leg against DX,
    by mean latency) holds on at least two structures in
    scope — a sweep restricted to a single structure therefore cannot
    pass, which is the forced-miss leg of the exit-code tests. *)

val to_json : result -> string
val render : result -> string
