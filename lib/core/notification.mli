(** The control-transfer half of the model.

    Data arrival never implicitly activates the destination process.
    When a request asks for notification (and the segment's policy
    allows), a record becomes readable on the segment's notification
    file descriptor; a process may block reading it or install a signal
    handler for an upcall. Delivery to user level costs the measured
    260 us (Table 2), charged to the destination CPU as control
    transfer. *)

type kind = Write_arrived | Read_served | Cas_applied

type record = { src : Atm.Addr.t; kind : kind; off : int; count : int }

type t

val create : ?name:string -> ?segment:int -> Cluster.Node.t -> t
(** [name] labels the descriptor in deadlock reports; [segment] is the
    id of the exported segment it belongs to (none for a completion
    descriptor). *)

type Cluster.Node.event +=
  | Delivered of { segment : int; record : record }
        (** A record became visible to user code on the descriptor of
            segment [segment] (0 for a completion descriptor): a
            blocked {!wait} resumed, a signal upcall ran, or a queued
            record was popped. *)

val post : ?ctx:Obs.Ctx.t -> t -> record -> unit
(** Called by the kernel emulation on request arrival. Non-blocking for
    the caller; delivery happens as its own activity on the node's CPU:
    a process named ["NAME delivery"] per post, concurrent with the
    others, which charges the delivery cost and then hands the record
    to a waiting reader, the signal handler or the queue. The processes
    are {!Sim.Pool}ed per descriptor, so a post reuses one whose
    delivery finished, with the clock and events of a fresh spawn; an
    idle one is never reported blocked, and a handler that raises takes
    its process down and propagates out of the run. [ctx] parents the
    delivery span under the originating operation. *)

val wait : t -> record
(** Block the current process until a record is deliverable
    ("read" on the descriptor). *)

val set_signal_handler : t -> (record -> unit) option -> unit
(** Install (or clear) an upcall run at delivery when no reader waits. *)

val pending : t -> int
val posted : t -> int
val kind_to_string : kind -> string
