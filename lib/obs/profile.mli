(** Host-time profiling of the simulator itself: wall-clock seconds and
    GC allocation deltas per named run phase ([Gc.quick_stat], read
    after a minor collection at each phase boundary so every counter is
    current).

    Where the virtual clock measures the {e modeled} system, this
    measures the machine running the model — the instrument behind
    [bench --host] and the events/sec baseline the batched-engine
    roadmap item must beat.  Host readings never feed back into
    simulation state, so profiling cannot perturb a run. *)

type sample = {
  wall_s : float;  (** elapsed wall-clock seconds *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

type t

val create : unit -> t

val record : t -> string -> (unit -> 'a) -> 'a
(** [record t name f] runs [f] and stores the wall and GC deltas under
    [name]. Re-raises (after recording) if [f] raises. *)

val phases : t -> (string * sample) list
(** Recording order. *)

val phase : t -> string -> sample option

val total_words : sample -> float
(** Words allocated across generations, promoted counted once. *)

val total : t -> sample
(** Sum over all recorded phases. *)

val report : t -> string
(** Table of phases: wall ms, allocated words, promoted words. *)
