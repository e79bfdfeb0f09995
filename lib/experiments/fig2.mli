(** Figure 2: client-seen request latency, HY vs DX, for the twelve
    representative operations. *)

type row = { op : string; hy_us : float; dx_us : float }

type result = row list

val run : ?fixture:Fixture.t -> unit -> result
(** Test-only ?fixture: tier-1 shares one fixture across the figure
    tests instead of building one per run. *)

val dx_wins_everywhere : result -> bool
(** Test-only: the Figure 2 band test. *)

val render : result -> string
