(** The open-addressing probe walk shared by every linear-probing table
    in the tree: the name-service registry ({!Names.Registry}, walked
    in place by its owner and over remote READs by every other clerk)
    and the distributed hash table ({!Hashtable}) follow the same
    discipline — walk [hash, hash+1, ...] modulo the table size, skip
    (but remember) tombstones, stop at the first free slot.

    The walk is storage-agnostic: the caller classifies each slot
    (local bytes, a remote READ, whatever), and the walk provides only
    the probe-sequence policy, so every table agrees on where a key can
    legally live. *)

type ('hit, 'note) step =
  | Hit of 'hit
      (** the slot holds the probed key: stop, carrying what the
          classifier read there *)
  | Free  (** an empty slot: every chain ends here *)
  | Tombstone of 'note option
      (** a deleted slot: skipped, not chain-ending; the first slot is
          remembered for reuse and the first [Some] note (e.g. a
          decodable forwarding record) is carried out *)
  | Other  (** a live slot holding another key: keep walking *)

type ('hit, 'note) outcome =
  | Found of { index : int; probes : int; hit : 'hit }
      (** the key's slot, the probe number that reached it, and the
          hit's payload *)
  | Absent of {
      free : int option;
          (** the chain-ending empty slot, or [None] when the walk
              exhausted the table *)
      reusable : int option;  (** the first tombstone met, if any *)
      note : 'note option;  (** the first note a tombstone carried *)
      probes : int;
    }

val walk :
  slots:int ->
  hash:int ->
  classify:('env -> 'key -> int -> ('hit, 'note) step) ->
  'env ->
  'key ->
  ('hit, 'note) outcome
(** [walk ~slots ~hash ~classify env key] walks the probe sequence,
    calling [classify env key index] once per visited slot in probe
    order, stopping at the first [Hit] or [Free] (or after [slots]
    probes). [classify] is a top-level function and [env] (the table,
    or whatever reads its slots) and [key] its arguments, so a walk
    builds no closure: one that ends on a hit allocates only its
    [Found]. Insertion policy on [Absent]: prefer [reusable] over
    [free]; both [None] means the table is full for this key. *)
