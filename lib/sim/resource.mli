(** FIFO mutual-exclusion resources.

    Models serially reusable hardware (a CPU, a NIC port): one holder at a
    time, waiters served strictly in arrival order. *)

type t

val create : ?name:string -> unit -> t

val acquire : t -> unit
(** Take the resource, blocking the current process while held by another. *)

val acquire_by : t -> Proc.t -> bool
(** [acquire_by t waiter] takes the resource for a {!Proc.callback}
    waiter and returns [true] if it is free. Otherwise it queues the
    waiter behind the processes and waiters already queued, exactly
    where {!acquire} would block a process, and returns [false]: the
    {!release} that hands it over schedules the waiter's callback, at
    the point it would schedule a process's resumption. *)

val release : t -> unit
(** Release; ownership passes directly to the oldest waiter if any.
    Raises [Invalid_argument] if the resource is not held. *)
