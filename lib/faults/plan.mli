(** Declarative fault plans.

    A plan is pure data — what goes wrong, with which probabilities, in
    which time windows. It carries no randomness and no clock; the
    {!Plane} combines it with a seed and the simulated clock, so every
    fault sequence is a pure function of (plan, seed) and a failing
    campaign replays exactly. *)

type window = { from_ : Sim.Time.t; until : Sim.Time.t }
(** Half-open: active at [from_ <= now < until]. *)

val window : from_:Sim.Time.t -> until:Sim.Time.t -> window
(** Raises [Invalid_argument] if empty. *)

val within : window list -> Sim.Time.t -> bool
(** Is the instant inside any of the windows? *)

val active : window list -> Sim.Time.t -> bool
(** Like {!within}, except the empty list means the whole run. *)

(** Per-frame stochastic faults, applied independently on every fabric
    link. Probabilities are per offered frame. *)
type link_faults = {
  loss : float;
  corrupt : float;  (** payload damage; NICs detect it by AAL checksum *)
  duplicate : float;
  jitter : float;
      (** extra-delay probability — induces reordering; the delay is
          drawn uniformly in [0, 50 us) *)
  windows : window list;  (** [[]] = the whole run *)
}

val link_faults :
  ?loss:float ->
  ?corrupt:float ->
  ?duplicate:float ->
  ?jitter:float ->
  ?windows:window list ->
  unit ->
  link_faults
(** Defaults: all probabilities 0; a jittered frame is delayed up to
    50 us. Raises
    [Invalid_argument] for probabilities outside [0, 1].
    Test-only ?windows: a heal mid-run, which only a bounded loss window
    makes; every campaign loses frames to the end. *)

type partition = { group : int list; windows : window list }
(** While any window is active, frames between a group member and a
    non-member are cut (both directions, judged on the frame's own
    src/dst, so it is exact on star topologies too); traffic within the
    group, and among non-members, flows. *)

type crash = { node : int; at : Sim.Time.t; restart_at : Sim.Time.t option }
(** Crash the node at [at] (inbound frames absorbed, pending remote ops
    on it time out); optionally restart at [restart_at], which re-exports
    its segments under fresh generations — pre-crash descriptors then
    fail [Stale_generation] until revalidated. *)

type t = {
  link : link_faults;
  partitions : partition list;
  crashes : crash list;
}

val none : t
(** The empty plan: a plane built from it injects nothing. *)

val make :
  ?link:link_faults ->
  ?partitions:partition list ->
  ?crashes:crash list ->
  unit ->
  t
(** Raises [Invalid_argument] for an empty partition group, a partition
    without windows, or a restart not after its crash. *)
