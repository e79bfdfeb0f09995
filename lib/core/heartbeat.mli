(** Failure detection over pure data transfer (§3.7): a periodic remote
    read of a monotonically increasing counter word, with timeouts as
    the fundamental detection mechanism. *)

type state = Alive | Failed

type t

val publish :
  Remote_memory.t -> Segment.t -> off:int -> period:Sim.Time.t -> unit -> unit
(** [publish rmem segment ~off ~period] starts the exporter-side daemon
    that keeps the counter word at [off] within [segment] increasing
    every [period], and returns the daemon's stop function. *)

val watch :
  Remote_memory.t ->
  Descriptor.t ->
  soff:int ->
  ?period:Sim.Time.t ->
  ?timeout:Sim.Time.t ->
  ?strikes_allowed:int ->
  on_failure:(unit -> unit) ->
  unit ->
  t
(** Start a watcher that remote-reads the counter every [period]
    (default 10 ms) with a [timeout] (default 5 ms). After more than
    [strikes_allowed] consecutive misses — timeouts, remote errors, or
    a counter that stopped moving — the state flips to [Failed] and
    [on_failure] runs once. A probe that sees the counter advance again
    resets the strike count — strikes are the retry policy
    here; a lossy link accumulates them and a healed one clears them. *)

val state : t -> state
val strikes : t -> int
(** Consecutive misses since the counter last advanced.
    Test-only: strikes that reset on a heal before the budget runs out,
    which leave the state Alive. *)

val stop : t -> unit
(** Test-only: stopping a watcher, which every campaign leaves running to
    the end. *)
