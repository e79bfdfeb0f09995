(** Same-machine, cross-address-space procedure call (LRPC-style).

    The paper's structure keeps control transfer local: a client talks to
    the server clerk on its own machine through this mechanism. Modeled
    as one CPU charge in each direction around the callee. *)

val call : Node.t -> ('a -> 'b) -> 'a -> 'b
(** [call node f arg] charges half the LRPC round-trip, runs [f arg]
    (which may block or consume CPU), charges the other half, and
    returns the result. Must run within a simulation process. *)

type Node.event +=
  | Called
        (** Emitted at every {!call} entry on the calling node (a
            same-node synchronization point); the race monitor ticks
            the node's clock on it. The tracer observes calls through
            its own span instead, so the two compose. *)
