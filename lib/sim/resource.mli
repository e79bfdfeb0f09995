(** FIFO mutual-exclusion resources.

    Models serially reusable hardware (a CPU, a NIC port): one holder at a
    time, waiters served strictly in arrival order. *)

type t

val create : ?name:string -> unit -> t

val acquire : t -> unit
(** Take the resource, blocking the current process while held by another. *)

val release : t -> unit
(** Release; ownership passes directly to the oldest waiter if any.
    Raises [Invalid_argument] if the resource is not held. *)

val with_resource : t -> (unit -> 'a) -> 'a
(** [acquire]/[release] bracket, exception-safe.
    Test-only: the resource unit tests. *)

val is_busy : t -> bool
(** Test-only: the resource unit tests. *)

val acquisitions : t -> int
(** Total number of [acquire] calls, for utilization statistics.
    Test-only: the resource unit tests. *)

val contended : t -> int
(** Number of [acquire] calls that had to wait.
    Test-only: the resource unit tests. *)
