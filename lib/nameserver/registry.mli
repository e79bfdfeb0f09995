(** The open-addressed (linear-probing) hash table a clerk serializes
    into its registry segment.

    The owning clerk changes it with local memory operations; remote
    clerks READ the same bytes. Every reader walks a name's probe chain
    through {!walk}, under one slot rule, by the slot's flag word:
    {ul
    {- {!Record.flag_valid}: a record — the hit when it holds the name,
       else the walk goes on;}
    {- {!Record.flag_moved}: a tombstone, left by a deletion or a
       shard migration — skipped, the first one reusable by an insert,
       carrying the {!Record.forward} its spare bytes may hold;}
    {- any other flag: a free slot — every chain ends there.}}
    Deletion leaves a tombstone, so it never orphans a colliding name
    that probed past the deleted slot. *)

type t

val segment_bytes : slots:int -> int
(** Bytes of segment memory a table of [slots] slots occupies. *)

val create : space:Cluster.Address_space.t -> base:int -> slots:int -> t
(** [slots] must be a positive power of two. *)

val slots : t -> int
val live : t -> int

type 'env reader
(** How a walk reaches a table's slot images: built once per table a
    reader walks (per registry, per imported shard), so a walk builds
    no closure. *)

val reader :
  Cluster.Address_space.t -> slot:('env -> int -> int) -> 'env -> 'env reader
(** [reader space ~slot env]: [slot env off] brings the image of the
    slot at byte offset [off] of the table into [space] — a remote READ
    into a probe buffer, or nothing for a table [space] holds — and
    returns its address there. [slot] is a top-level function and [env]
    whatever it reads with (a clerk and a descriptor). *)

val env : 'env reader -> 'env

val walk :
  slots:int -> 'env reader -> string -> (Record.t, Record.forward) Dds.Probe.outcome
(** [walk ~slots r name] walks [name]'s probe chain over a table of
    [slots] slots through [r]; each image is read in place under the
    slot rule. A hit carries the record, a tombstone its forward. Past
    what [r]'s [slot] allocates, a hit costs its outcome, the
    classify's [Hit] and the record, and nothing else. *)

val insert : t -> Record.t -> (int, [ `Full ]) result
(** Returns the slot index used. Re-inserting a live name overwrites it.
    The flag word is written last (single-writer / multi-reader
    consistency, as in the paper). *)

val lookup : t -> string -> (Record.t * int) option
(** Returns the record and the number of probes taken to reach it. *)

val delete : t -> string -> int option
(** Tombstone the name's slot ({!Record.flag_moved}): walks skip it and
    an insert may reuse it. Returns the slot index, so the caller can
    mirror the slot remotely, or [None] if the name is absent. *)

val iter : t -> (int -> Record.t -> unit) -> unit
(** Apply to every live slot's record, in slot order. *)

val well_formed : t -> bool
(** Structural consistency of the serialized table: the live counter
    matches the number of records the slot rule reads and no record
    has an empty (torn) name. *)
