(** The discrete-event engine: a virtual clock and an ordered event queue.

    Every simulated activity is ultimately a thunk scheduled at an instant.
    Events at the same instant fire in the order they were scheduled,
    unless a same-instant {!scheduler} is installed to pick otherwise. *)

type blocked = {
  process : string;  (** the blocked process, as named at [Proc.spawn] *)
  resource : string;  (** what it waits on, e.g. [ivar "done"] *)
  since : Time.t;  (** when it blocked *)
}

exception Deadlock of Time.t * blocked list
(** Raised by {!run} when the event queue drains while non-daemon
    waiters are still registered: every such process is blocked on a
    resource nothing can ever signal. The payload names each blocked
    process and the resource it waits on. *)

type t

val create : unit -> t

val now : t -> Time.t
(** Current simulated time. *)

val pending : t -> int
(** Number of events still queued. *)

val events_fired : t -> int
(** Total events executed since [create]; the system benchmark
    ([bench/suite]) reports it per operation. *)

val schedule : ?after:Time.t -> t -> (unit -> unit) -> unit
(** [schedule ~after t thunk] runs [thunk] [after] nanoseconds from now
    (default: at the current instant, after already-queued same-time
    events). Raises [Invalid_argument] on negative delays. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Schedule at an absolute instant. Raises [Invalid_argument] if the
    instant is in the past. *)

val step : t -> bool
(** Fire the next event (consulting the installed scheduler at
    same-instant choice points). Returns [false] if the queue was
    empty. *)

val run : ?until:Time.t -> t -> unit
(** Run until the queue drains, [stop] is called, or the next event lies
    beyond [until]. When a limit is given and the queue drains early, the
    clock still advances to the limit. With no limit, a drain that
    leaves non-daemon blocked waiters raises {!Deadlock} (disable with
    {!set_deadlock_detection}).
    Test-only ?until: a run cut at a given instant, which every run leaves
    to quiesce. *)

val stop : t -> unit
(** Make [run] return after the current event completes.
    Test-only: a run ended from inside, which every run leaves to quiesce. *)

(** {1 Same-instant scheduling choice points}

    When more than one event is enabled at the next instant, the order
    they fire in is a genuine scheduling choice: the model checker
    enumerates these, a random scheduler fuzzes them, and the default
    (no scheduler) keeps the historical FIFO order so existing runs are
    bit-identical. *)

type choice = {
  at : Time.t;  (** the instant *)
  enabled : int list;  (** sequence numbers of enabled events, FIFO order *)
}

type scheduler = choice -> int
(** Must return one of [choice.enabled]. Called only when two or more
    events are enabled at the same instant. *)

val set_scheduler : t -> scheduler option -> unit
(** Install ([Some]) or remove ([None], the default FIFO order) the
    same-instant scheduler.
    Test-only: a scheduler installed by hand, where the model checker
    installs its own through {!Analysis}. *)

val next_enabled : t -> choice option
(** The events enabled at the next instant without firing anything —
    the explorer's view of the current choice point. *)

val step_seq : t -> int -> bool
(** Fire the enabled event carrying the given sequence number. Returns
    [false] on an empty queue; raises [Invalid_argument] if the event
    exists but is not enabled at the next instant. *)

(** {1 Blocked-waiter registry}

    Synchronization primitives register who is blocked on what (via
    [Proc.sleep] or [Proc.park]) so deadlocks can be reported by name. *)

type label =
  | Text of string  (** printed as is *)
  | Quoted of string * string  (** [Quoted (kind, name)] prints as [kind "name"] *)
  | Numbered of string * int  (** [Numbered (prefix, n)] prints as [prefix ^ n] *)
(** A process or resource name, formatted only when a {!blocked} list is
    built, so that blocking and spawning never build strings. *)

type waiter
(** A process's entry in the registry, built once per process and
    linked in while the process is blocked: blocking and waking
    allocate nothing. *)

val waiter : label -> waiter
(** A fresh, unblocked waiter for the process named by the label. *)

val block : t -> waiter -> resource:label -> daemon:bool -> unit
(** Record the waiter as blocked on [resource] from now, after every
    waiter already blocked. *)

val unblock : waiter -> unit
(** Take the waiter out of the registry; a no-op if it is not blocked. *)

val blocked : t -> blocked list
(** Currently blocked non-daemon waiters in registration order.  Daemon
    waiters (a NIC receive loop, an RPC server queue) idle between
    requests by design and never indicate deadlock. *)

val set_deadlock_detection : t -> bool -> unit
(** Default on. *)

val deadlock_report : blocked list -> string

val next_spawn_id : t -> int
(** Fresh per-engine id used to name anonymous processes. *)

(** {1 Causal parenthood}

    With tracking on (off by default: it retains one table entry per
    event), every scheduled event remembers the sequence number of the
    event that was firing when it was scheduled. The model checker uses
    the resulting forest to attribute a process chain's memory accesses
    to the choice that launched it. *)

val set_parent_tracking : t -> bool -> unit

val parent : t -> int -> int option
(** [parent t seq] — the scheduling event of [seq], if it was scheduled
    during another event while tracking was on. *)
