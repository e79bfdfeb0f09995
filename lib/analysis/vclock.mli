(** Vector clocks over a dense space of agent ids.

    Values are immutable; missing components read as zero, so clocks
    grow transparently as agents register. *)

type t

val empty : t

val get : t -> int -> int
(** Component for agent [i] (0 when never ticked).
    Test-only: a single component of a clock, which reports show only
    through race verdicts. *)

val tick : t -> int -> t
(** Advance agent [i]'s component by one. *)

val join : t -> t -> t
(** Component-wise maximum. *)

val leq : t -> t -> bool
(** [leq a b] iff every component of [a] is <= the one in [b]:
    the happens-before-or-equal order. *)

type order = Equal | Before | After | Concurrent

val compare : t -> t -> order
(** Test-only: the partial order itself, concurrency included, which reports
    show only through race verdicts. *)
