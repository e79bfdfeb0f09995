(** A wait with one consumer: a process parks on it until whoever
    finishes the awaited work unparks it. Pooled completion records (a
    remote-memory READ's or CAS's, an RPC call's) each embed one, so a
    wait allocates only the park's continuation. *)

type t

val create : unit -> t

val park : ?daemon:bool -> t -> resource:Engine.label -> unit
(** Block the current process until {!unpark} or {!resume}, recorded as
    {!Proc.park} records it, a non-daemon wait unless [daemon] (one
    that idles between requests, as a dispatcher does). Raises
    [Invalid_argument] if a process already waits here. *)

val unpark : t -> unit
(** Schedule the waiting process, if any, to run now, as {!Proc.unpark}
    does. *)

val resume : t -> unit
(** Run the waiting process now, inline, as {!Proc.resume} does.
    Raises [Invalid_argument] if no process waits here. *)

val hand_over : t -> t -> unit
(** [hand_over a b] moves the process parked on [a], still parked, to
    [b]. Raises [Invalid_argument] if none waits on [a] or one on [b]. *)
