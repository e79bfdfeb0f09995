(** The server side of RPC: reception (in the node's receive-dispatcher
    process) into a request queue, a pool of service threads, and CPU
    accounting split into the paper's Figure 3 categories. *)

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
