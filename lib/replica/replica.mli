(** A serverless replicated configuration store — §3.2's "eliminate the
    server completely and have the state maintained by the clerks
    alone".

    Every member holds a full replica in an exported segment; updates
    propagate as one-way remote writes (version word last), reads are
    local memory accesses, concurrent updates converge by
    (version, writer) last-writer-wins, and an anti-entropy pass
    remote-reads a peer's replica to repair gaps. No server exists. *)

type t

val create : Names.Clerk.t -> t
(** Export this member's replica (registered with the name service):
    64 slots. *)

val join : t -> peer:Atm.Addr.t -> unit
(** Import a peer's replica so updates and anti-entropy reach it. *)

val members : t -> int
(** Known members, including this one. *)

(** {1 The store} *)

val get : t -> string -> bytes option
(** Purely local: one memory read, no network. *)

val set : t -> string -> bytes -> unit
(** Install locally and push to every peer with one-way remote writes.
    Keys up to 32 bytes, values up to 64. *)

(** {1 Recovery} *)

val set_recovery : t -> Rmem.Recovery.policy option -> unit
(** Run pushes and anti-entropy reads under a recovery policy (extended
    per peer with a name-service revalidator, so a peer crash/restart's
    [Stale_generation] heals by forced re-import). Pushes become
    fenced-and-reissued (idempotent redeposit) and a peer unreachable
    through every retry is a counted failure instead of an exception.
    The default [None] keeps the legacy one-way behavior, bit-identical
    to the fault-free build. *)

(** {1 Repair} *)

val anti_entropy_with : t -> peer:Atm.Addr.t -> unit
(** Remote-read the peer's whole replica; adopt every newer entry. *)

val start_anti_entropy_daemon : t -> period:Sim.Time.t -> unit -> unit
(** Periodically reconcile with a random peer; returns the stop
    function. *)

(** {1 Statistics} *)

val repairs : t -> int
