(** XDR marshaling of file-service operations for the RPC baseline, with
    Table 1b's control/data field classification. *)

val prog : int
(** The file service's RPC program number. *)

val proc_of_op : Nfs_ops.op -> int
(** NFSv2-style procedure numbers. *)

val marshal_op : Nfs_ops.op -> Rpckit.Xdr.t
val unmarshal_op : proc:int -> Rpckit.Xdr.reader -> Nfs_ops.op
val marshal_result : Nfs_ops.result -> Rpckit.Xdr.t
val unmarshal_result : Rpckit.Xdr.reader -> Nfs_ops.result
