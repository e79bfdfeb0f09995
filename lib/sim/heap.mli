(** Binary min-heap of timestamped events, ordered by [(time, seq)].

    The sequence number breaks ties between events scheduled for the same
    instant so that same-time events fire in scheduling order, which keeps
    simulation runs fully deterministic.

    The heap orders times, seqs and payload slot numbers kept in parallel
    arrays; each payload is written once, into a slot it keeps until it
    is taken. {!push} and {!take_min} allocate nothing once the arrays
    have grown, sifting pays no write barrier, and a taken payload is no
    longer reachable from the heap. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills unused payload slots; it is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val min_time : 'a t -> Time.t
(** Time of the smallest entry. Raises [Invalid_argument] when empty. *)

val min_seq : 'a t -> int
(** Sequence number of the smallest entry. Raises [Invalid_argument]
    when empty. *)

val take_min : 'a t -> 'a
(** Remove the smallest entry and return its payload. Raises
    [Invalid_argument] when empty. *)

val entries_at_min : 'a t -> 'a entry list
(** Every entry sharing the smallest time, in ascending [seq] order —
    the set of events enabled at the next instant. [[]] when empty. *)

val remove : 'a t -> seq:int -> 'a entry option
(** Remove the entry carrying [seq] (sequence numbers are unique per
    engine), restoring the heap invariant. [None] if absent. *)
