(** Simulated time: instants and durations as integer nanoseconds. *)

type t = int
(** An instant (nanoseconds since simulation start) or a duration.  The two
    are deliberately the same type; arithmetic below keeps intent clear. *)

val zero : t

(** {1 Constructors} *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

val of_us_float : float -> t
(** [of_us_float f] is [f] microseconds, rounded to the nearest nanosecond.
    This is the main entry point for calibration constants, which the paper
    reports in microseconds. *)

val of_ms_float : float -> t

(** {1 Conversions} *)

val to_ns : t -> int
val to_us : t -> float
val to_ms : t -> float

(** {1 Arithmetic and comparison} *)

val add : t -> t -> t
val diff : t -> t -> t

val scale : t -> float -> t
(** [scale t k] is [t] multiplied by [k], rounded to the nearest ns. *)

val mul : t -> int -> t
(** [mul t n] is [t] multiplied by the count [n]: [scale t (float_of_int n)]
    for every product below 2{^53}, without a float crossing the call.
    The per-cell and per-word cost arithmetic uses it, so pricing a frame
    allocates nothing. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t

(** {1 Printing} *)

val to_string : t -> string
