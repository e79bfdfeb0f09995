(** Reusable processes: each job runs in a process of its own,
    concurrently with the others, as if spawned for it; a process whose
    job finished parks, as a daemon, until a later job wakes it. A
    notification descriptor delivers each record this way, and the
    name service's reconciler serves each registration so. *)

type ('a, 'b) t
(** Processes of one name that run jobs taking an ['a] and a ['b]. *)

val create : Engine.t -> name:string -> ('a, 'b) t
(** No process yet; each one is named [name] in deadlock reports. *)

val post : ('a, 'b) t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [post pool job a b] runs [job a b] in an idle process, unparked now,
    or in a new one spawned now. Either way it starts one event at the
    current instant, behind already-queued same-time events, where
    {!Proc.spawn} would start it, so the clock and the event order are
    those of a spawn per job. An idle process parks as a daemon: it is
    never in {!Engine.blocked} nor in a deadlock report. A job that
    raises takes its process down, and the exception propagates out of
    [Engine.run] as a spawned body's would. Waking an idle process
    allocates the park's continuation and nothing else. *)
