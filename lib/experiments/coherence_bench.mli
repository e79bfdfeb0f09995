(** Ablation D: token coherence via remote CAS (no server control
    transfer) versus an RPC token service — acquire latency and server
    CPU per acquire/release pair. *)

type point = {
  sharers : int;
  scheme : string;
  mean_acquire_us : float;
  server_us_per_pair : float;
}

type result = point list

val run : ?sharer_counts:int list -> unit -> result
(** Test-only ?sharer_counts: tier-1 runs the sweep at one sharer
    count. *)

val render : result -> string
