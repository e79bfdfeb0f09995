(** A node's processor: a FIFO resource whose holders consume simulated
    time, with every consumption attributed to a named category.

    The per-category totals feed the paper's Figure 3 server-CPU
    breakdown and the "50% server load" headline. *)

type t

val create : ?name:string -> unit -> t

val use : t -> category:string -> Sim.Time.t -> unit
(** Occupy the CPU for the duration (queueing FIFO behind other users)
    and attribute the time (in microseconds) to [category]. Must be
    called from within a simulation process. *)

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
