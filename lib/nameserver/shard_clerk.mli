(** The sharded clerk: client-side routing over the shard map.

    Lookups are pure data transfer end to end — fetch and cache the map
    segment with a remote READ, hash to a bucket, import the owning
    shard straight from the map entry (the map is the directory), and
    walk the probe chain with slot-sized READs. Staleness heals by
    retry: a miss is believed only after the map's epoch word re-reads
    unchanged; forwarding tombstones patch the cached map in place,
    bare tombstones and stale/revoked shard descriptors force a map
    refetch — the revalidation chain with the map as revalidator.
    Registration is control transfer through the reconciler. *)

type t

val create : map_hint:Atm.Addr.t -> reconciler_hint:Atm.Addr.t -> Clerk.t -> t
(** Wrap a node's clerk with sharded routing. [map_hint] is the map
    host's address, [reconciler_hint] the reconciler's. *)

val lookup : t -> string -> Record.t
(** Sharded LOOKUPNAME. Raises {!Clerk.Name_not_found} only after a
    miss is confirmed under a current map epoch (bounded stale-retry
    rounds in between). Raises {!Rmem.Status.Timeout} if the fabric
    eats the probes and no recovery policy is set. *)

val register : t -> Record.t -> unit
(** Register through the reconciler: a {!Clerk.call} into its request
    segment; a lost exchange is reissued (idempotent), 8 tries in all,
    before {!Rmem.Status.Timeout} escapes. Raises [Failure]
    if the reconciler refuses (shard full). *)

val report_load : t -> unit
(** Write this client's per-map-entry lookup counts (since the last
    report) into the reconciler's load segment, tagged with the cached
    epoch; resets the counts. *)

val set_recovery : t -> Rmem.Recovery.policy option -> unit
(** Run every remote READ under the policy, with the map refetch wired
    in as the revalidator for stale shard descriptors.
    Test-only: the shard clerk's recovery policy, which no campaign
    installs. *)

val epoch : t -> int
(** Epoch of the cached map (0 before the first fetch). *)

val stale_refetches : t -> int
(** Map refetch rounds forced by tombstones, stale descriptors, or
    epoch changes observed mid-lookup. *)

val forward_patches : t -> int
(** Lookups healed in place from a forwarding tombstone — the cached
    map patched locally with the destination shard's coordinates, no
    refetch from the map host.
    Test-only: a clerk's own heals, which the suite reports only summed over
    clerks. *)

val refreshes : t -> (int * Sim.Time.t) list
(** (epoch, adoption time) pairs, oldest first — the convergence
    measurement's raw data. *)

val stats : t -> Metrics.Account.t
