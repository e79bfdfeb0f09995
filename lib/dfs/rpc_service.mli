(** The RPC-baseline file service: the same operations as {!Server},
    reached through the classic RPC stack. *)

val start : Rpckit.Transport.t -> store:File_store.t -> unit -> unit
