(** The fault plane: a deterministic saboteur for a whole testbed.

    [create] interposes a verdict function on every fabric link (in the
    fabric's fixed construction order, each with its own PRNG stream
    split off the seed), flips the links to drop-on-overflow, and
    schedules any crash/restart events from the plan. The interposer
    draws a fixed number of PRNG values per offered frame regardless of
    verdict, so fault classes never perturb each other's draws: the
    whole fault sequence is a pure function of (plan, seed), and a
    failing campaign replays exactly.

    With {!Plan.none} (the default) every verdict is [Deliver] and the
    runs stay bit-identical to the fault-free build. *)

type t

val create :
  ?plan:Plan.t ->
  ?rmems:(int * Rmem.Remote_memory.t) list ->
  ?preserve:int list ->
  ?on_restart:(int -> unit) ->
  seed:int ->
  Cluster.Testbed.t ->
  t
(** [rmems] maps node index to its remote-memory engine: needed for
    crash plans (pending ops failed on crash, exports regenerated on
    restart) and to route retry/recovery counters into the plane's
    registry. [preserve] lists segment ids whose generation survives a
    restart (well-known bootstrap segments). [on_restart node] runs
    after a node's exports come back — the place to re-announce new
    generations to the name service
    (e.g. [Names.Clerk.reannounce clerk]). *)

val registry : t -> Obs.Registry.t
(** Injection counters ([faults.frames] — every frame inspected —
    [faults.drops], [faults.corruptions],
    [faults.duplicates], [faults.delays], [faults.partition_drops],
    [faults.crashes], [faults.restarts]) plus the retry/recovery
    counters of every registered rmem ([rmem.retries],
    [rmem.revalidations], [rmem.recovered], [rmem.gave_up],
    [rmem.refused]). *)

(** {1 The replay contract} *)

val event_count : t -> int

val digest : t -> int
(** A positive hash of every injected fault and its instant, in order:
    two runs with equal digests injected the identical fault sequence at
    the identical instants. *)
