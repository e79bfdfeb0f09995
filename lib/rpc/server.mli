(** The server side of RPC: interrupt-level reception into a request
    queue, a pool of service threads, and CPU accounting split into the
    paper's Figure 3 categories. *)

type t

val create :
  Transport.t ->
  prog:int ->
  ?threads:int ->
  handler:(src:Atm.Addr.t -> proc:int -> Xdr.reader -> Xdr.t) ->
  unit ->
  t
(** Register the program and start [threads] service threads. The
    handler runs in a service thread and should charge its own
    procedure cost (category {!Cluster.Cpu.cat_procedure}). *)

val served : t -> int
(** Test-only: the RPC tests count served requests. *)

val queueing : t -> Metrics.Summary.t
(** Time requests spent queued before a thread picked them up (us).
    Test-only: the RPC tests check requests queue behind a busy thread. *)
