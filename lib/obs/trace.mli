(** The span tracer: follows every meta-instruction from issue to
    completion across layers.

    One tracer at a time occupies a global slot ({!attach} /
    {!detach}), in the style of {!Cluster.Lrpc}'s monitor. Every hook
    below is called unconditionally by the instrumented layers; when no
    tracer is attached each costs a single match on [None] and
    allocates nothing. Tracing never consumes simulated time or CPU, so
    an attached tracer observes exactly the run a detached one would —
    the Table 2 calibration is undisturbed either way.

    Correlation across hops rides on {!Ctx}: the issue side opens a
    root span and hands each outbound frame a context naming it; serve,
    reply, wire and notification spans parent themselves under that
    root at the receiving side. *)

type t

val create : ?registry:Registry.t -> Sim.Engine.t -> t
(** A tracer clocked by [engine]; with [registry], completed root spans
    feed per-(node, segment, op) latency series and counters. *)

val attach : t -> unit
(** Make [t] the active tracer (replacing any other). *)

val detach : unit -> unit
val enabled : unit -> bool

(** {1 Issue-side hooks (remote-memory meta-instructions)} *)

type flow
(** One meta-instruction in flight at its issuer: the root span plus the
    currently open phase span. *)

val issue_begin :
  node:int -> op:string -> seg:int -> off:int -> count:int -> flow option
(** Open a root span for an accepted meta-instruction. [None] when
    detached. If a {!scope_begin} scope is open on [node], the new span
    joins that scope's trace as its child instead of rooting a fresh
    trace. *)

val phase : flow option -> string -> unit
(** Open a child phase span (closing any current phase): "trap", "nic". *)

val phase_end : flow option -> unit

val wire_ctx : flow option -> Ctx.t option
(** A fresh per-frame context for an outbound request frame. *)

(** {1 Wire hooks (called from [Atm])} *)

val frame_sent : Ctx.t option -> node:int -> unit
(** NIC accepted a frame: open its wire span ([ctx.wire]). *)

val frame_delivered : Ctx.t option -> node:int -> unit
(** Frame reached the destination NIC FIFO: close the wire span. *)

val link_hop :
  Ctx.t option -> name:string -> start:Sim.Time.t -> finish:Sim.Time.t -> unit
(** One link (or switch) transit, recorded as an already-closed child of
    the wire span. *)

val dispatch_begin : node:int -> Ctx.t option -> unit
(** The node dispatcher is about to hand this frame to its protocol
    handler; remember its context so serve-side hooks can find it. *)

val dispatch_end : node:int -> unit

(** {1 Serve / reply-side hooks} *)

type serve
(** A serve (or reply-processing) span tied to the inbound frame's
    context. *)

val serve_begin : node:int -> name:string -> serve option
(** Open a span under the inbound frame's root: "serve", "reply".
    [None] when detached or the frame carried no context. *)

val serve_arg : serve option -> string -> string -> unit
val serve_end : serve option -> unit

val serve_ctx : serve option -> label:string -> Ctx.t option
(** A fresh context for a frame sent while serving (replies, nacks) or
    for a notification post — parented to the same root. *)

val root_close : serve option -> status:string -> unit
(** The reply completed the operation at its issuer: close the root span
    and feed the registry. *)

val ctx_span_begin : Ctx.t option -> node:int -> Span.t option
(** Open a span named by the context's label under its root
    (notification delivery). *)

val span_end_opt : Span.t option -> unit

(** {1 Scopes (user-level enclosing spans)} *)

type scope

val scope_begin : node:int -> name:string -> scope option
(** Open an enclosing span on [node] (e.g. a DFS clerk fetch): until
    {!scope_end}, meta-instructions issued on the node nest under it. *)

val scope_end : scope option -> unit

val scoped_begin : node:int -> name:string -> cat:string -> Span.t option
(** A plain child span of the current scope (kernel syscalls). *)

val lrpc_begin : node:int -> Span.t option
(** An LRPC call span under the current scope; counts "lrpc calls". *)

(** {1 Results} *)

val spans : t -> Span.t list
(** All spans, in recording order. *)

val roots : t -> Span.t list
val children : t -> Span.t -> Span.t list
val span_count : t -> int

val finalize : t -> unit
(** Close every still-open span to its latest descendant finish
    (unacknowledged WRITE roots end when their serve — or notification —
    does) and feed late-closing roots to the registry. Run before
    {!validate}, {!phase_totals} or export. *)

val phase_totals : t -> Span.t -> (string * float) list
(** Per-child-name summed durations (us) under a root — the Table 1
    style decomposition of one operation. *)

val validate : t -> (unit, string list) result
(** Structural well-formedness: non-empty, no orphans, no open spans,
    per-trace consistency, monotone timestamps. *)
