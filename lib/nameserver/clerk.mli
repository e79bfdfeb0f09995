(** The name-service clerk: one per machine, no central server.

    Clerks communicate only through remote memory. Each clerk's registry
    is an open-addressed hash table inside its well-known exported
    segment; importers probe it with remote READs, falling back to a
    control-transfer lookup (remote WRITE with notification, answered by
    a remote WRITE of the result) according to the probe policy —
    exactly the three options §4.2 of the paper weighs. *)

type t

exception Name_not_found of string

type probe_policy =
  | Probe_until_found  (** keep probing remotely (the paper's choice) *)
  | Probe_then_control of int  (** probe [n] times, then transfer control *)
  | Control_immediately

val create : Rmem.Remote_memory.t -> t
(** Create the clerk on a node. Must be the node's first exporter (the
    well-known generation contract); call from within a process. *)

val node : t -> Cluster.Node.t
val rmem : t -> Rmem.Remote_memory.t
val registry : t -> Registry.t
val probe_policy : t -> probe_policy
val set_probe_policy : t -> probe_policy -> unit

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
(** DELETENAME: invalidate the local slot; remote clerks discover the
    deletion on refresh or through generation mismatch. *)

val lookup : ?force:bool -> ?hint:Atm.Addr.t -> t -> string -> Record.t
(** LOOKUPNAME: local cache, then the local registry, then remote
    probing of [hint]'s registry per the probe policy. [force] skips the
    cache (the paper's explicit-remote-lookup escape hatch). Raises
    {!Name_not_found}. *)

val register_descriptor : t -> name:string -> Rmem.Descriptor.t -> unit
(** Associate a kernel descriptor with a cached name so refresh can mark
    it stale when the name disappears or changes generation. *)

val serve_lookup_requests : t -> unit
(** Install the exporter-side signal handler answering control-transfer
    lookups on this clerk's request segment. *)

(** {1 Scratch-slot rendezvous}

    The clerk's well-known scratch segment is the reply channel for any
    control-plane exchange answered by a remote WRITE — its own
    control-transfer lookups, and the sharding layer's registrations. *)

val alloc_scratch_slot : t -> int
(** Claim the next scratch slot (round-robin), arming its flag word to
    pending; the returned index times {!Bootstrap.scratch_slot_bytes} is
    the reply offset a request should advertise. *)

val await_scratch_reply : t -> slot:int -> Record.t option
(** Spin (5 us steps, 50 ms deadline) on the slot's flag word
    until a reply lands: [Some record] on a found reply carrying a
    decodable record, [None] on an absent/refused reply. Raises
    {!Rmem.Status.Timeout} at the deadline. *)

val scratch_descriptor : t -> remote:Atm.Addr.t -> Rmem.Descriptor.t
(** Import (lazily, cached) the well-known scratch segment of [remote]'s
    clerk — where a server writes its reply for {!await_scratch_reply}
    to observe. *)

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
(** Test-only: the name-service tests exercise periodic cache refresh. *)

val cached_names : t -> string list
(** Test-only: the refresh-daemon tests check what the clerk caches. *)

val stats : t -> Metrics.Account.t
(** Test-only: the name-service tests read the clerk's counters. *)
