(** Figure 3: server CPU per operation decomposed into data reception /
    control transfer / procedure invocation / data reply, HY vs DX. *)

type breakdown = {
  reception_us : float;
  control_us : float;
  procedure_us : float;
  reply_us : float;
}

type row = { op : string; hy : breakdown; dx : breakdown }

type result = row list

val run : ?fixture:Fixture.t -> unit -> result
(** Test-only ?fixture: tier-1 shares one fixture across the figure
    tests instead of building one per run. *)

val average_load_ratio : result -> float
(** Mean DX/HY server-load ratio over the ops (paper: < 0.5).
    Test-only: the Figure 3 band test. *)

val render : result -> string
