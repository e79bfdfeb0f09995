(** One-call construction of a complete simulated cluster: engine,
    network, and started nodes. *)

type t

val create :
  ?costs:Costs.t ->
  ?config:Atm.Config.t ->
  ?topology:Atm.Network.topology ->
  ?seed:int ->
  nodes:int ->
  unit ->
  t

val engine : t -> Sim.Engine.t
val network : t -> Atm.Network.t

val node : t -> int -> Node.t
val nodes : t -> Node.t list

val run : t -> (unit -> 'a) -> 'a
(** Run a body as a process and drive the simulation to quiescence
    (see {!Sim.Proc.run}). *)
