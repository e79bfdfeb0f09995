(** RPC message transport over the cluster network (tag 0x20).

    Call frames carry a 72-byte ONC-RPC-sized header, replies a 24-byte
    one; header bytes are pure control traffic, body bytes keep their
    {!Xdr} classification. All traffic is accounted on the calling
    transport under the caller's activity label — the raw material of
    Table 1b. *)

type t

val attach : Cluster.Node.t -> t
(** Claim the RPC frame tag on a node. One per node. *)

val node : t -> Cluster.Node.t

val call_header_bytes : int
(** 72 — xid, message type, program/version/procedure, credentials. *)

val reply_header_bytes : int
(** 24 — xid, message type, reply status, verifier. *)

(** {1 Client side} *)

val send_call :
  t ->
  dst:Atm.Addr.t ->
  prog:int ->
  proc:int ->
  label:string ->
  Xdr.t ->
  bytes Sim.Ivar.t
(** Transmit a call; the ivar fills with the raw reply body. Traffic is
    accounted under [label] (call now, reply on arrival). No timing or
    CPU cost here — see {!Client.call} for the full client path. *)

(** {1 Server side} *)

val register :
  t ->
  prog:int ->
  deliver:(src:Atm.Addr.t -> xid:int -> proc:int -> args:bytes -> unit) ->
  unit
(** Register a program. [deliver] runs at interrupt level (in the node
    dispatcher) and must only enqueue; see {!Server}. *)

val send_reply : t -> dst:Atm.Addr.t -> xid:int -> Xdr.t -> unit

(** {1 Frame size arithmetic (for experiments)} *)

val call_frame_bytes : Xdr.t -> int
val reply_frame_bytes : Xdr.t -> int

(** {1 Traffic accounts (bytes by activity label)} *)

val control_traffic : t -> Metrics.Account.t
(** Test-only: the RPC tests check the control/data byte split. *)

val data_traffic : t -> Metrics.Account.t
(** Test-only: the RPC tests check the control/data byte split. *)

val call_counts : t -> Metrics.Account.t
(** Test-only: the RPC tests count calls per class. *)
