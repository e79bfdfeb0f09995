(** Operation histories for linearizability checking.

    A history is the client-observed record of every completed
    shared-memory operation: one event per (operation, word cell), with
    an invocation/response sim-time interval and the operation's
    arguments and observed result. {!Monitor} feeds it from the existing
    {!Rmem.Remote_memory} monitor events — the data path itself carries
    no new instrumentation.

    Events are recorded at {e serve} time, when the operation touched
    the exporter's memory, so every event in a history actually took
    effect; an operation whose reply never arrived stays {e pending}
    ([resp = None]) and may be linearized anywhere after its
    invocation. Values are captured by reading the exporter's memory in
    the same atomic step as the serve: a word only partially covered by
    an operation gets an {!Unknown} value, which constrains nothing.

    Histories are word-granular by construction, which is what makes the
    checker P-compositional: linearizability of the whole history is
    exactly linearizability of every per-cell sub-history
    ({!Linearize}). *)

type value =
  | Known of int32
  | Unknown
      (** unobserved (partial-word access, local touch without a
          recorded value): reads constrain nothing, writes clobber the
          cell to an unconstrained state *)

type operation =
  | Read of value  (** the value the reply carried *)
  | Write of value  (** the word value the deposit left in memory *)
  | Cas of {
      expected : int32;
      desired : int32;
      success : bool;
      witness : value;  (** the word value the reply carried *)
    }

type cell = { key : Access.seg_key; word : int }
(** One unit of linearizable state: a word-aligned byte offset within a
    shared region. *)

type event = {
  id : int;  (** capture order — the effect (serve) order *)
  agent : string;  (** issuing agent, [Monitor]'s per-node name *)
  cell : cell;
  op : operation;
  inv : Sim.Time.t;  (** invocation: when the issuer trapped *)
  mutable resp : Sim.Time.t option;
      (** response: when the issuer learned the outcome (reply
          completion; for unacknowledged WRITEs, the deposit itself).
          [None] while pending — such an event precedes nothing. *)
  logical : bool;  (** recorded through {!scope_end}, not a wire op *)
}

type t

val create : unit -> t

val events : t -> event list
(** All captured events, in capture (= effect) order. *)

val init_value : t -> cell -> value
(** The cell's value when its region was exported ({!note_export}
    snapshots the segment), or [Unknown] for unexported regions. *)

(** {1 Capture (driven by {!Monitor})} *)

val note_export : t -> key:Access.seg_key -> Rmem.Segment.t -> unit
(** Snapshot the segment's memory as the initial value of its cells. *)

val exclude : t -> key:Access.seg_key -> unit
(** Drop all events on the segment: its operation history is incomplete
    by design (the home node mutates it outside the monitor's view, as
    the name-service clerk does with its well-known segments), so
    checking it would report phantom violations. *)

type handle
(** Pending events from one serve, awaiting their response time. *)

val no_handle : handle

val record_serve :
  t ->
  agent:string ->
  key:Access.seg_key ->
  segment:Rmem.Segment.t ->
  op:Rmem.Rights.op ->
  off:int ->
  count:int ->
  cas:(int32 * int32) option ->
  cas_success:bool option ->
  inv:Sim.Time.t ->
  now:Sim.Time.t ->
  handle
(** Record one served meta-instruction (one event per covered word
    cell), reading observed values from the segment's memory — must be
    called in the same atomic step as the serve. WRITE events complete
    immediately ([resp = now]); READ/CAS events stay pending until
    {!complete}. Inside an open {!scope_begin} for [agent], physical
    events are suppressed ([no_handle]). *)

val complete : t -> handle -> now:Sim.Time.t -> unit
(** The serve's reply reached the issuer: fill the response times. *)

val record_local :
  t ->
  agent:string ->
  key:Access.seg_key ->
  kind:[ `Load | `Store ] ->
  off:int ->
  count:int ->
  ?value:int32 ->
  now:Sim.Time.t ->
  unit ->
  unit
(** A direct local touch of shared memory: an instantaneous
    event per covered cell ([inv = resp = now]). Without [value] the
    cells record {!Unknown}; with it, a single fully-covered word
    records [Known value]. *)

(** {1 Logical operations}

    A retrying client protocol (e.g. a CAS reissued on a lost reply) is
    {e one} operation to its caller even when it put several requests on
    the wire. A scope replaces the physical events of one agent with a
    single logical event carrying the wrapper's observed result — the
    history then checks the protocol's client-facing contract, which is
    exactly where lost-reply double-apply bugs live. *)

val scope_begin : t -> agent:string -> now:Sim.Time.t -> unit
(** Open a logical scope: suppress [agent]'s physical events until
    {!scope_end}. Scopes do not nest. *)

val scope_end :
  t -> agent:string -> cell:cell -> op:operation -> now:Sim.Time.t -> unit
(** Close the scope with one logical event: [inv] = the scope's begin
    time, [resp = now]. *)

(** {1 Pretty-printing} *)

val value_to_string : value -> string
val cell_to_string : cell -> string
val event_to_string : event -> string
