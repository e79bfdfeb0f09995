(** A node's processor: one charge at a time, in FIFO order, each
    consuming simulated time attributed to a named category.

    The per-category totals feed the paper's Figure 3 server-CPU
    breakdown and the "50% server load" headline. *)

type t

val create : ?name:string -> Sim.Engine.t -> t
(** A CPU whose charges run on the engine's clock, named [resource
    "name"] in a deadlock report's waits for it. *)

val use : t -> category:string -> Sim.Time.t -> unit
(** {!charge} the duration to [category] from within a simulation
    process, which parks until the event that ends the span, named in
    the engine's registry while the charge waits for the CPU. *)

type 'a charger
(** The CPU as code outside every process charges it: an interrupt-level
    handler's or a parked issuer's steps, functions of the charger's ['a]. *)

val charger : t -> Sim.Engine.label -> 'a -> 'a charger
(** [charger t who arg]: a charger on the CPU whose steps take [arg],
    named in the engine's registry (and so in a deadlock report) as
    [who] while it waits for the CPU. *)

val charge : 'a charger -> category:string -> Sim.Time.t -> ('a -> unit) -> unit
(** [charge c ~category span next] occupies the CPU for [span], at once
    if it is free, else from an event at the instant every charge queued
    before it has ended; attributes it (in microseconds) to [category];
    and then, in the event that ends the span, releases the CPU and
    applies [next] (a top-level function, so that a charge builds no
    closure) to the charger's argument. It returns at once and suspends
    nothing. The charger holds one charge at a time: [next] may charge
    again. *)

type 'a chargers
(** A pool of chargers, as {!charger} names them, each lent for one
    charge: as many as its charges ever overlapped. *)

val chargers : t -> Sim.Engine.label -> 'a chargers

val lend :
  'a chargers -> ('e -> 'a) -> 'e -> category:string -> Sim.Time.t ->
  ('a -> unit) -> 'a
(** [lend p make env ~category span next]: {!charge} on a free charger
    of [p], or on a new one whose argument is [make env], which goes
    back to [p] when the span ends, before [next]. Returns the argument,
    which the caller may fill until then. The pool is a stack: a [lend]
    from [next], before any other from [p], takes the same charger
    back, so a chain of charges keeps its argument. *)

val busy_time : t -> Sim.Time.t
val account : t -> Metrics.Account.t

val utilization : t -> window:Sim.Time.t -> float
(** Fraction of [window] spent busy. *)

val reset_accounting : t -> unit

(** {1 Canonical category names} *)

val cat_data_reception : string
val cat_data_reply : string
val cat_control_transfer : string
val cat_procedure : string
val cat_emulation : string
val cat_client : string
