(** A cluster workstation: CPU, NIC, address spaces, and the inbound
    protocol demultiplexer.

    Protocols claim tag bytes (the first byte of every frame payload);
    the node routes each inbound frame, in arrival order, to the owning
    protocol's handler. An interrupt-level handler runs outside every
    process, from the event that takes its frame; a process-level one
    runs in the node's receive-dispatcher process and may block. A
    handler must not keep the payload past its end: the frame is then
    released ({!Atm.Frame.release}) and a pooled one is reused. *)

type t

type handler = src:Atm.Addr.t -> bytes -> unit

val create :
  Sim.Engine.t -> costs:Costs.t -> nic:Atm.Nic.t -> prng:Sim.Prng.t -> t

val addr : t -> Atm.Addr.t
val engine : t -> Sim.Engine.t
val costs : t -> Costs.t
val cpu : t -> Cpu.t
val nic : t -> Atm.Nic.t
val prng : t -> Sim.Prng.t

val spawn : ?name:string -> t -> (unit -> unit) -> unit
(** Start a process on this node (scheduling only; does not consume CPU). *)

val new_address_space : t -> Address_space.t

val set_handler : t -> tag:int -> handler -> unit
(** Claim a protocol tag byte for a process-level handler: it runs in
    the receive-dispatcher process, and the next frame is taken when it
    returns. Raises [Invalid_argument] if already claimed or out of
    [0..255]. *)

val set_interrupt_handler : t -> tag:int -> handler -> unit
(** {!set_handler} for an interrupt-level handler: it runs in the event
    that takes its frame, outside every process, and must not block. It
    charges the CPU with {!Cpu.charge} on a {!charger}, one step after
    another, and after its last step calls {!dispatched} once; the next
    frame is taken only then. *)

val charger : t -> 'a -> 'a Cpu.charger
(** A charger on the node's CPU for an interrupt-level handler whose
    steps take the argument; while it waits for the CPU it is listed as
    the node's rx-dispatcher. *)

val dispatched : t -> unit
(** End the running interrupt-level handler: release its frame and
    dispatch the next one. *)

val transmit : ?ctx:Obs.Ctx.t -> t -> dst:Atm.Addr.t -> bytes -> unit
(** Hand a payload (whose first byte must be a claimed-by-someone tag on
    the receiving side) to the NIC. [ctx] rides the frame for tracing. *)

val transmit_frame :
  ?ctx:Obs.Ctx.t -> t -> dst:Atm.Addr.t -> Atm.Frame.t -> unit
(** {!transmit} a frame already built, a pooled one from the NIC's pool.
    The receiving node releases it once its handler returns. *)

val start : t -> unit
(** Start the receive dispatcher: take received frames from now on.
    Idempotent. *)

(** {1 Event stream}

    Everything an observer may watch on a node (remote-memory issues and
    serves, notification deliveries, recovery outcomes, LRPC entries,
    data-structure operations) is one stream per node. Each layer adds
    its own constructors to {!event}. *)

type event = ..

val subscribe : t -> (event -> unit) -> unit
(** Add a subscriber: it sees every later event, after the subscribers
    already attached. Subscribers ignore constructors they do not know. *)

val unsubscribe : t -> (event -> unit) -> unit
(** Remove a subscriber (compared physically). *)

val observed : t -> bool
(** Whether anyone subscribes. Emitters build an event only when this
    holds, so an unobserved path allocates nothing. *)

val emit : t -> event -> unit
(** Hand an event to every subscriber, in subscription order. *)

val set_down : t -> bool -> unit
(** Crash (or revive) the node: while down, inbound frames are absorbed
    without any reaction, so peers observe the failure only through
    timeouts — the paper's failure-detection model. *)
