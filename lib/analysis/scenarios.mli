(** Compact, deterministic replays of the repository's example
    workloads and data structures, run under the monitor.

    Each workload is a prepare function: it builds a fresh testbed,
    attaches a monitor, and spawns the workload without running it. The
    caller drives the engine — [Sim.Engine.run] for a normal run
    ({!run}), or event by event under a model-checker schedule
    ({!Explore}). What each workload does, and what every checker
    expects of it, is documented once, in its workload-catalog entry
    ([Catalog]). *)

type prep = {
  testbed : Cluster.Testbed.t;
  monitor : Monitor.t;
  finished : unit -> bool;
      (** did the workload's main process reach its end *)
  invariants : (string * (unit -> bool)) list;
      (** named workload-state predicates, checked after a completed
          run *)
}

(** {1 Example workloads} *)

val kv_store : unit -> prep
val producer_consumer : unit -> prep
val file_service : unit -> prep
val file_service_nofence : unit -> prep
val name_service : unit -> prep
val racy : unit -> prep

(** {1 Seeded schedule bugs}

    Clean under the default FIFO schedule; only exploration exposes
    them. *)

val torn_record : unit -> prep
val cas_missing_release : unit -> prep
val cas_double_apply : unit -> prep
val frame_overrun : unit -> prep
val dds_register_no_writeback : unit -> prep

(** {1 Distributed data structures}

    Each {!Dds} structure driven by clients in all three structurings
    at once, observed through the clients' operation brackets
    ({!Dds.Plane.Begin}/{!Dds.Plane.Commit}). *)

val dds_hashtable : unit -> prep
val dds_queue : unit -> prep
val dds_register : unit -> prep

val run : (unit -> prep) -> Monitor.t
(** Prepare, run the engine to quiescence under the default FIFO order,
    and return the monitor for checking. *)
