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
val costs : t -> Costs.t
(** Test-only: the tests read the cost model a testbed was built with. *)

val node : t -> int -> Node.t
val nodes : t -> Node.t list
val size : t -> int
(** Test-only: the fabric-scale tests check the node count. *)

val node_of_addr : t -> Atm.Addr.t -> Node.t option
(** Constant-time (hash-indexed) lookup of the node owning a network
    address — the fabric-scale replacement for scanning {!nodes}.
    Test-only: the fabric-scale tests check the constant-time lookup. *)

val run : t -> (unit -> 'a) -> 'a
(** Run a body as a process and drive the simulation to quiescence
    (see {!Sim.Proc.run}). *)
