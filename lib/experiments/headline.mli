(** The paper's headline: ~50% server-load reduction when the Table 1a
    mix moves from Hybrid-1 to pure data transfer. *)

type result = {
  events : int;
  hy_server_us : float;
  dx_server_us : float;
  hy_breakdown : (string * float) list;
  dx_breakdown : (string * float) list;
}

val run : ?fixture:Fixture.t -> ?scale:int -> unit -> result
(** Test-only ?fixture: tier-1 shares one fixture across the figure
    tests instead of building one per run. Test-only ?scale: tier-1
    runs a shorter trace. *)

val reduction : result -> float
(** 1 - DX/HY server CPU (paper: ~0.5). Test-only: the headline band test. *)

val render : result -> string
