(** An output-queued ATM switch.

    Frames arriving on any input are forwarded onto the destination
    port's downlink — or, in a multi-switch fabric, onto the trunk this
    switch's route table names for the destination — after a fixed
    switching latency; contention appears as queueing on the shared
    output link. A frame with neither a local port nor a route is
    dropped and counted ({!drops}), never fatal. *)

type t

val create : ?name:string -> Sim.Engine.t -> Config.t -> t
(** [name] (default ["switch"]) labels this switch's trace hops and
    trunk link names. *)

val attach_port : t -> Nic.t -> unit
(** Create the downlink that delivers to this NIC. *)

val uplink_for : t -> Addr.t -> Link.t
(** Create the uplink a node uses to reach the switch. *)

val trunk_to : t -> t -> Link.t
(** [trunk_to t peer] — create the directed inter-switch link carrying
    frames from [t] into [peer]'s forwarding logic. The trunk is owned
    (and listed by {!links}) on the sending side only. *)

val add_route : t -> dst:int -> Link.t -> unit
(** Route frames for host address [dst] onto an output link (normally a
    trunk created with {!trunk_to}). Directly attached ports take
    precedence over routes. *)

val forward : t -> Frame.t -> unit
(** Inject a frame into this switch's forwarding logic (as an arriving
    trunk does).
    Test-only: the host cost of one switch hop alone, with no link or NIC
    around it. *)

val drops : t -> int
(** Frames discarded for a destination with no port and no route. *)

val queue_depth : t -> int
(** Instantaneous frames queued across every output this switch drives
    (host downlinks and outgoing trunks) — output-queued contention, as
    sampled by the telemetry plane. *)

val links : t -> (int option * int option * Link.t) list
(** Every fabric edge this switch owns, in deterministic port order,
    with its endpoints: uplink [i -> switch] is [(Some i, None, link)],
    downlink [switch -> j] is [(None, Some j, link)], and an outgoing
    inter-switch trunk is [(None, None, link)]. *)
