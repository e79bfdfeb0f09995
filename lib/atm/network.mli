(** Topology construction: back-to-back mesh (the paper's switchless
    testbed), a switched star (the anticipated larger deployment), or a
    multi-switch scale-out fabric — two-tier leaf/spine Clos or three-
    tier k-ary fat tree — with deterministic shortest-path routing. *)

type topology =
  | Back_to_back
  | Star
  | Clos of { spines : int; leaves : int; hosts_per_leaf : int }
      (** [leaves * hosts_per_leaf] hosts; every leaf trunks to every
          spine, remote traffic spread by destination address. *)
  | Fat_tree of { k : int }
      (** k-ary fat tree ([k] even): [k^3/4] hosts, [k] pods of [k/2]
          edge and [k/2] aggregation switches, [(k/2)^2] cores. *)

type t

val create :
  ?config:Config.t -> ?topology:topology -> Sim.Engine.t -> nodes:int -> t
(** Build a network of [nodes] NICs addressed [0 .. nodes-1].
    Raises [Invalid_argument] for fewer than two nodes, or when [nodes]
    does not match the chosen fabric shape. *)

val nic_of_int : t -> int -> Nic.t
val size : t -> int

val switches : t -> Switch.t list
(** Every switch in the fabric, in deterministic construction order:
    leaves then spines (Clos), edges then aggregations then cores
    (fat tree), the one star switch, or empty for a mesh. *)

val links : t -> (int option * int option * Link.t) list
(** Every fabric edge with its endpoints, in deterministic construction
    order, for the fault plane. Mesh link [i -> j] is
    [(Some i, Some j, link)]; a switch's uplink [i -> switch] is
    [(Some i, None, link)], downlink [switch -> j] is
    [(None, Some j, link)], and an inter-switch trunk is
    [(None, None, link)]. *)
