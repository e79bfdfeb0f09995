(** Per-category accumulation of a quantity (CPU seconds, bytes, calls).

    The bookkeeping behind Figure 3's server-CPU breakdown and Table 1b's
    control/data split: consumptions are attributed to named categories
    and read back as per-category totals, in first-seen order. *)

type t

val create : unit -> t

val add : t -> category:string -> float -> unit

val add_int : t -> category:string -> int -> unit
(** [add_int t ~category n] is [add t ~category (float_of_int n)] without
    boxing a float per call: the data path counts bytes with it. *)

val add_us_of_ns : t -> category:string -> int -> unit
(** [add_us_of_ns t ~category ns] adds [ns] nanoseconds as microseconds,
    [float_of_int ns /. 1000.], without boxing a float per call. *)

val total_of : t -> string -> float
(** 0 for a category never charged. *)

val grand_total : t -> float
val categories : t -> string list
(** In first-seen order. *)

val to_list : t -> (string * float) list
val reset : t -> unit
