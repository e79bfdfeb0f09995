(** Ablation A: scalability with client count — server utilization and
    client latency under the Table 1a mix, HY vs DX. *)

type point = {
  clients : int;
  scheme : Dfs.Clerk.scheme;
  mean_latency_us : float;
  makespan_us : float;
  server_utilization : float;
}

type result = point list

val run : ?client_counts:int list -> unit -> result
(** Test-only ?client_counts: tier-1 runs the sweep at one client
    count. *)

val render : result -> string
