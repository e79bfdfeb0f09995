(** RPC message transport over the cluster network (tag 0x20).

    Call frames carry a 72-byte ONC-RPC-sized header, replies a 24-byte
    one; header bytes are pure control traffic, body bytes keep their
    {!Xdr} classification. *)

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
(** Transmit a call; the ivar, named after [label] in deadlock reports,
    fills with the raw reply body. No timing or CPU cost here — see
    {!Client.call} for the full client path. *)

(** {1 Server side} *)

val register :
  t ->
  prog:int ->
  deliver:(src:Atm.Addr.t -> xid:int -> proc:int -> args:bytes -> unit) ->
  unit
(** Register a program. [deliver] runs in the node's receive-dispatcher
    process ({!Cluster.Node.set_handler}), so the next frame waits until
    it returns: it should only charge reception and enqueue; see
    {!Server}. *)

val send_reply : t -> dst:Atm.Addr.t -> xid:int -> Xdr.t -> unit

(** {1 Frame size arithmetic (for experiments)} *)

val call_frame_bytes : Xdr.t -> int
val reply_frame_bytes : Xdr.t -> int
(** The reply header, an 8-byte (control, data) split of the body, and
    the body. *)
