(** Cooperative simulation processes.

    A process is direct-style OCaml code running under an effect handler
    installed by {!spawn}. Within a process, {!wait} advances simulated
    time and {!suspend} blocks until some other activity resumes it.
    Calling either outside a process raises [Effect.Unhandled]. *)

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

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the current process. [register] is called
    immediately with a one-shot [resume] function; whoever calls
    [resume v] (at any later simulated instant) unblocks the process with
    value [v]. Double resumption raises [Invalid_argument]. *)

type 'a parking
(** A prebuilt handler for blocking: what {!park} does with the
    blocked process. Build one per queue a process can block on, so
    blocking allocates no handler. *)

val parking :
  ?daemon:bool -> resource:Engine.label -> (('a -> unit) -> unit) -> 'a parking
(** [parking ~resource register] blocks like {!suspend_on} [~resource
    register] each time it is {!park}ed on. *)

val park : 'a parking -> 'a
(** Block the current process as its parking says; the value is what
    the process is resumed with. *)

val suspend_on :
  ?daemon:bool -> resource:Engine.label -> (('a -> unit) -> unit) -> 'a
(** {!suspend}, but the block is recorded in the engine's waiter
    registry under the current process's name and [resource], and
    cleared on resume — the raw material of {!Engine.Deadlock} reports.
    [daemon] marks waits that idle between requests by design (a server
    loop) and never count as deadlocked. Blocking and waking allocate no
    registry entry: the process's waiter is built at {!spawn}. *)

val run : Engine.t -> (unit -> 'a) -> 'a
(** [run engine body] spawns [body], drives the engine until quiescence
    and returns [body]'s result. Raises {!Engine.Deadlock} if the queue
    drained while [body] was still blocked, and re-raises any exception
    [body] raised. Intended for tests and experiment harnesses. *)
