(** The name-service clerk: one per machine, no central server.

    Clerks communicate only through remote memory. Each clerk's registry
    is an open-addressed hash table inside its well-known exported
    segment; importers probe it with remote READs ({!lookup}), or ask
    its clerk by control transfer ({!Rmem.Hybrid}:
    {!lookup_by_control_transfer}) — the two options §4.2 of the paper
    weighs. *)

type t

exception Name_not_found of string

val create : Rmem.Remote_memory.t -> t
(** Create the clerk on a node. Must be the node's first exporter (the
    well-known generation contract); call from within a process. *)

val node : t -> Cluster.Node.t
val rmem : t -> Rmem.Remote_memory.t
val registry : t -> Registry.t

val set_probe_timeout : t -> Sim.Time.t option -> unit
(** Bound each remote probe READ. The default [None] waits forever —
    correct on a reliable fabric and bit-identical to the legacy
    schedule; under the fault plane a lost probe must surface as
    {!Rmem.Status.Timeout} so lookups (and the recovery layer's
    revalidation) can retry instead of hanging. *)

(** {1 Service procedures (reached via local RPC from the kernel)} *)

val add_name : t -> Record.t -> unit
(** ADDNAME: insert into the local registry (local memory ops only). *)

val delete_name : t -> string -> unit
(** DELETENAME: tombstone the local slot; remote clerks discover the
    deletion on refresh or through generation mismatch. *)

val lookup : ?force:bool -> ?hint:Atm.Addr.t -> t -> string -> Record.t
(** LOOKUPNAME: local cache, then the local registry, then remote
    probing of [hint]'s registry (the paper's choice). [force] skips the
    cache and the local registry (the paper's explicit-remote-lookup
    escape hatch). Raises {!Name_not_found}. *)

val lookup_by_control_transfer : t -> remote:Atm.Addr.t -> string -> Record.t
(** LOOKUPNAME by control transfer to [remote]'s clerk, which answers
    from its registry: the lookup-with-notification variant. Skips the
    cache like a forced {!lookup} and caches what it finds. Raises
    {!Name_not_found}. *)

val register_descriptor : t -> name:string -> Rmem.Descriptor.t -> unit
(** Associate a kernel descriptor with a cached name so refresh can mark
    it stale when the name disappears or changes generation. *)

val serve_lookup_requests : t -> unit
(** Install the exporter-side signal handler answering control-transfer
    lookups on this clerk's request segment. *)

(** {1 Control transfer}

    The clerk's well-known scratch segment is the {!Rmem.Hybrid} reply
    ring of every control-plane exchange answered with a record: its
    own control-transfer lookups, and the sharding layer's
    registrations. *)

val call :
  t -> Rmem.Descriptor.t -> slot_bytes:int -> ('a -> bytes -> int) -> 'a ->
  Record.t option
(** {!Rmem.Hybrid.call} through the scratch ring (50 ms deadline), the
    request encoded as that call encodes it:
    [Some record] on a reply carrying one, [None] on an absent or
    refused one. Raises {!Rmem.Status.Timeout} at the deadline. *)

val reply : t -> Rmem.Hybrid.ticket -> Record.t option -> unit
(** Answer a {!call} served on this clerk's node: a record, or [None]
    for absent or refused. *)

(** {1 Cache refresh} *)

val refresh_once : t -> unit
(** Revalidate every cached imported name against its home registry;
    purge the gone/re-exported ones and mark their descriptors stale. A
    name whose probe times out stays cached for a later pass. *)

val reannounce : t -> unit
(** After a crash/restart re-exported this node's segments under fresh
    generations ({!Rmem.Remote_memory.restart_exports}), rewrite the
    local registry records that still advertise the old generations, so
    remote lookups and forced re-imports see the new ones. *)

val start_refresh_daemon : t -> period:Sim.Time.t -> unit
(** Test-only: periodic cache refresh, which no workload runs. *)
