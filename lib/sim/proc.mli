(** Cooperative simulation processes.

    A process is direct-style OCaml code running under an effect handler
    installed by {!spawn}. Within a process, {!wait} advances simulated
    time and {!sleep} blocks on a {!sleepers} queue until some other
    activity {!wake}s it, or {!park}s until some other activity
    {!unpark}s it. Calling any of them outside a process raises the
    runtime's unhandled-effect exception. Code that must not pay a
    continuation per wait (an interrupt-level handler) waits instead as
    a {!callback}: a waiter whose wake is a prebuilt callback. *)

val spawn : ?after:Time.t -> ?name:string -> Engine.t -> (unit -> unit) -> unit
(** [spawn engine body] schedules [body] to start as a process, [after]
    nanoseconds from now (default: immediately). [name] labels the
    process in deadlock reports (default ["proc<n>"], numbered per
    engine). Exceptions escaping [body] propagate out of
    [Engine.run]. *)

val wait : Time.t -> unit
(** Block the current process for the given duration of simulated time. *)

val yield : unit -> unit
(** Reschedule the current process behind already-queued same-time events. *)

type t
(** A process. *)

val self : unit -> t
(** The running process. Raises the runtime's unhandled-effect
    exception outside every process. *)

val nobody : t
(** No process, never run nor parked: a placeholder for a field that
    names a process only some of the time. *)

val callback : Engine.t -> Engine.label -> (unit -> unit) -> t
(** [callback engine who f] is a waiter that is not a fiber: it runs no
    code of its own and suspends nothing, so it costs no continuation.
    It waits as a process does, at the tail of a [unit] {!sleepers}
    queue ({!enqueue}) or until an {!unpark} ({!listen}), recorded in
    the engine's registry under [who]; the {!wake}, {!signal} or
    {!unpark} that ends the wait schedules [f] where it would schedule a
    process's resumption, and {!resume} calls [f] at once. *)

type 'a sleepers
(** Processes blocked on one queue, oldest first, each waiting to be
    handed an ['a]. The blocking primitive under [Ivar], [Mailbox],
    [Resource] and notification descriptors. *)

val sleepers : unit -> 'a sleepers
(** An empty queue. *)

val is_empty : 'a sleepers -> bool
(** No process is asleep on the queue. *)

val sleep : 'a sleepers -> resource:Engine.label -> daemon:bool -> 'a
(** Block the current process at the tail of the queue until a {!wake}
    takes it off, and return the value that wake handed it. The block
    is recorded in the engine's waiter registry under the process's name
    and [resource], and cleared on the wake — the raw material of
    {!Engine.Deadlock} reports. [daemon] marks waits that idle between
    requests by design (a server loop) and never count as deadlocked.
    A sleep and its wake allocate the sleep's continuation, a queue
    node and the box that carries the value ({!signal} shares one box
    for every unit wake): no closure, and nothing to find the process,
    which a sleep reads from the register every resume sets. The value
    itself is handed over as is, so an immediate one — an int such as a
    CAS outcome, a constant constructor — adds nothing, where a tuple
    or a boxed [int32] adds its own blocks to every handoff. *)

val enqueue : unit sleepers -> t -> resource:Engine.label -> daemon:bool -> unit
(** Put a {!callback} waiter at the tail of the queue, recorded as
    {!sleep} records a process, and return: the wake that takes it off
    schedules its callback. *)

val wake : 'a sleepers -> 'a -> unit
(** Take the oldest sleeper off the queue, hand it the value and schedule
    it to run now, behind already-queued same-time events. Each sleep is
    woken once: a wake that finds the queue empty — a second or stale
    wake — raises [Invalid_argument] and wakes nothing. *)

val signal : unit sleepers -> unit
(** [wake q ()], with one box shared by every such wake. *)

val park : resource:Engine.label -> daemon:bool -> unit
(** Block the current process until an {!unpark} names it: a wait with
    one consumer, which whoever ends it finds through {!self}. The block
    is recorded as {!sleep} records it. A park and its unpark allocate
    the park's continuation and nothing else. *)

val listen : t -> resource:Engine.label -> daemon:bool -> unit
(** Park a {!callback} waiter, recorded as {!park} records a process,
    and return: an {!unpark} schedules its callback. *)

val unpark : t -> unit
(** Schedule a parked process to run now, exactly where {!wake} would
    schedule it. Raises [Invalid_argument] if it is not parked. *)

val resume : t -> unit
(** {!unpark}, but run the process (or callback) now, inline, in the
    event that calls it rather than in an event of its own. *)

val spin : every:Time.t -> deadline:Time.t -> (unit -> bool) -> bool
(** [spin ~every ~deadline ready] polls [ready] now and then every
    [every] until it holds ([true]) or a poll finds the clock past
    [deadline] ([false]): the events, instants and same-instant order
    of the loop [if ready () then true else if now > deadline then
    false else (wait every; loop ())], which it replaces. The process
    sleeps once, and a callback built with the process re-arms itself
    for each poll and resumes the process inline, so a spin allocates
    only its sleep, whatever its poll count. [ready] runs outside the
    process and must not block; a spin registers no block, since a poll
    is always pending. *)

val run : Engine.t -> (unit -> 'a) -> 'a
(** [run engine body] spawns [body], drives the engine until quiescence
    and returns [body]'s result. Raises {!Engine.Deadlock} if the queue
    drained while [body] was still blocked, and re-raises any exception
    [body] raised. Intended for tests and experiment harnesses. *)
