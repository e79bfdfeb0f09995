(** Figure 2: client-seen request latency, HY vs DX, for the twelve
    representative operations. *)

type row = { op : string; hy_us : float; dx_us : float }

type result = row list

val run : ?fixture:Fixture.t -> unit -> result
val dx_wins_everywhere : result -> bool
(** Test-only: the Figure 2 band test. *)

val render : result -> string
