(** Two-tier queue of timestamped events, ordered by [(time, seq)].

    The sequence number breaks ties between events scheduled for the same
    instant so that same-time events fire in scheduling order, which keeps
    simulation runs fully deterministic.

    A sorted buffer of 64 entries, minimum last, takes every push and
    take while few events pend; a binary heap behind it holds only the
    entries a full buffer evicts.  Both order times, seqs and payload
    slot numbers kept in parallel int arrays; each payload is written
    once, into a slot it keeps until it is taken. {!push} and
    {!take_min} allocate nothing once the arrays have grown, moving
    entries pays no write barrier, and a taken payload is no longer
    reachable from the queue. *)

type 'a entry = { time : Time.t; seq : int; payload : 'a }

type key = { mutable key_time : Time.t; mutable key_seq : int }
(** The key of the entry a take last removed. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills unused payload slots; it is returned only by a
    {!take_min} that finds nothing due. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val taken : 'a t -> key
(** The record every take writes, the same one for the queue's life. *)

val take_min : 'a t -> until:Time.t -> 'a
(** If the smallest entry's time is at most [until], remove it, record
    its key in {!taken} and return its payload. Otherwise set [key_seq]
    of {!taken} to [-1] and return the dummy: firing an event is this
    one call. *)

val entries_at_min : 'a t -> 'a entry list
(** Every entry sharing the smallest time, in ascending [seq] order —
    the set of events enabled at the next instant. [[]] when empty. *)

val remove : 'a t -> seq:int -> 'a entry option
(** Remove the entry carrying [seq] (sequence numbers are unique per
    engine). [None] if absent. *)
