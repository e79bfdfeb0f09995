(** The file service's server clerk, one per client machine.

    Clients reach the clerk through local RPC only; misses go to the
    server by one of three transfer schemes: pure data transfer ([Dx]),
    the paper's RPC-like hybrid ([Hybrid1]), or classic RPC
    ([Rpc_baseline]). A DX miss in the server cache transfers control
    (falls back to Hybrid-1), as §5.2 prescribes. *)

type scheme = Dx | Hybrid1 | Rpc_baseline

type t

val scheme_to_string : scheme -> string

val create :
  ?rpc:Rpckit.Transport.t ->
  ?export_local_cache:bool ->
  names:Names.Clerk.t ->
  server:Atm.Addr.t ->
  unit ->
  t
(** Import the server's service segments through the name service and
    export this clerk's Hybrid-1 reply segment. Run within a process.
    [rpc] is required only for the [Rpc_baseline] scheme.
    [export_local_cache] additionally exports the clerk's local file
    cache so the server can eagerly push updates into it (§3.2).
    Test-only ?export_local_cache: the server's eager push into a clerk
    cache (§3.2), which no workload subscribes to. *)

val node : t -> Cluster.Node.t
val set_scheme : t -> scheme -> unit
val stats : t -> Metrics.Account.t

val perform : t -> Nfs_ops.op -> Nfs_ops.result
(** The full client path: local RPC into the clerk, local caches, then
    the remote path on a miss (installing the result locally). *)

val remote_fetch : t -> Nfs_ops.op -> Nfs_ops.result
(** The miss path only (no local caches, no client-clerk local RPC) —
    what Figures 2 and 3 measure.

    Under [Dx] a [Write] is a push of its block into the server's file
    cache, acknowledged with [R_write] and attributes synthesized from
    the write itself. A push cannot see the kind of its handle, so a
    write to a directory (or a symlink) is acknowledged too, where
    [Hybrid1] and [Rpc_baseline] answer [R_error 22]; the server's
    {!Server.writeback} then drops the pushed block. A DX Read whose
    first block misses allocates nothing before it transfers
    control. *)
