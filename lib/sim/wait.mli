(** A wait with one consumer: a process parks on it until whoever
    finishes the awaited work unparks it. Pooled completion records (a
    remote-memory READ's or CAS's, an RPC call's) each embed one, so a
    wait allocates only the park's continuation. *)

type t

val create : unit -> t

val park : t -> resource:Engine.label -> unit
(** Block the current process until {!unpark}, recorded as {!Proc.park}
    records a non-daemon wait. Raises [Invalid_argument] if a process
    already waits here. *)

val unpark : t -> unit
(** Schedule the waiting process, if any, to run now, as {!Proc.unpark}
    does. *)
