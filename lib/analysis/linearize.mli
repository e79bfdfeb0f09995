(** Wing–Gong linearizability checking over captured {!History}s.

    The checker is {e P-compositional}: a word-granular history is
    linearizable iff every per-cell sub-history is (Horn & Kroening's
    P-compositionality; locality in Herlihy & Wing), so {!partition}
    splits the history per (segment, word) cell and each cell is
    searched independently against the sequential register+CAS
    specification. Within a cell the search enumerates linearization
    points in Wing–Gong style: repeatedly pick a precedence-minimal
    remaining event whose result is consistent with the current
    register value, memoizing (remaining-set, value) states.

    Two precedence relations select the memory model:

    - {!Linearizable} — same-agent program order plus real time: [e]
      precedes [f] when [e]'s response is before [f]'s invocation.
    - {!Sequential} — program order only, the just-in-time fallback for
      checking the weaker model. Per Golab et al. (arXiv:1109.5153)
      sequential consistency is {e not} compositional, so per-cell SC
      (= cache coherence) is a necessary condition only; a per-cell SC
      violation still refutes whole-history SC.

    A violation is reported with a witness sub-history minimized to a
    local minimum: removing {e any} single event from the witness makes
    it linearizable again. *)

type mode = Linearizable | Sequential

type cell_verdict =
  | Cell_ok of int  (** search states explored *)
  | Cell_violation of int
  | Cell_budget of int
      (** search budget exhausted before a verdict — the cell is
          reported skipped, never as a violation *)

type stats = {
  cells : int;  (** cells checked *)
  events : int;  (** events across all cells *)
  explored : int;  (** total search states *)
  skipped : int;  (** cells abandoned on budget *)
}

type verdict =
  | Pass of stats
  | Fail of {
      cell : History.cell;
      init : History.value;
      witness : History.event list;  (** minimal, in capture order *)
      cell_events : History.event list;  (** the full cell history *)
      stats : stats;
    }

val partition :
  History.event list -> (History.cell * History.event list) list
(** Group events per cell, capture order preserved within each cell,
    cells in first-touch order. Precedence edges are preserved: two
    events of one cell are related in the sub-history exactly as in the
    whole history (precedence is defined pointwise on intervals and
    agents). Test-only: the split of one history into independent cells,
    which a run shows only through {!check}'s whole verdict. *)

val check_cell :
  mode:mode -> ?budget:int -> init:History.value ->
  History.event list -> cell_verdict
(** Check one cell's events (any order; sorted internally) against the
    sequential specification starting from [init]. [budget] bounds
    explored search states (default 200k).
    Test-only: the verdict on a hand-built cell history, such as a pending
    write or a failed CAS, which no recorded run produces on demand.
    Test-only ?budget: the budget verdict, which no recorded history is
    long enough to reach. *)

val minimize :
  mode:mode -> init:History.value ->
  History.event list -> History.event list
(** Given a violating cell history, greedily drop events while the rest
    still violates, to a 1-minimal witness: removing any remaining
    event yields a linearizable history. Returns the input unchanged if
    it does not violate.
    Test-only: 1-minimality of a witness, which a failing run's report shows
    only as its final text. *)

val check : ?mode:mode -> History.t -> verdict
(** Check a whole history cell by cell; the first violating cell (in
    first-touch order) is reported with a minimized witness. *)

val describe : verdict -> string
val mode_to_string : mode -> string
