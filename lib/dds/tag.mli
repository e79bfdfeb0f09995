(** The quorum timestamp codec of the (N,N)-atomic register: a replica
    cell is two little-endian words, a packed [(ts, wr)] tag and the
    register value. The tag totally orders writes — timestamp first,
    writer rank as the tie-break — exactly the [highest()] comparison
    of the ABD read phase.

    A replica mid-update carries a {!busy_for} sentinel in its tag word;
    {!unpack} refuses it, so readers retry instead of pairing a new tag
    with an old value.

    Words are ints — the cell's 32 bits, sign-extended — so reading and
    comparing them boxes nothing. *)

type t = { ts : int; wr : int }
(** A write tag: logical timestamp [ts >= 0] and writer rank
    [0 <= wr < ranks]. *)

val ranks : int
(** Distinct writer ranks the packing supports (16). *)

val pack : t -> int
(** Injective into the non-negative 32-bit words; order-preserving:
    [Int.compare] of the packings is the quorum's total order,
    timestamp-major and rank-minor. Raises
    [Invalid_argument] outside the representable range. *)

val unpack : int -> t
(** Inverse of {!pack}. Raises [Invalid_argument] on a claim sentinel
    ({!busy_for}) or any negative word. *)

val busy_for : int -> int
(** Rank-specific claim sentinel [-(1 + wr)], which a writer CASes into
    the tag word while it deposits the new cell; never a valid packing.  A writer that lost the
    reply to its claiming CAS (loss, §3.7) re-reads the tag word: seeing
    its {e own} sentinel proves the claim landed and the deposit may
    proceed, where a shared sentinel would leave it waiting on itself
    forever.  Raises [Invalid_argument] outside [0 <= wr < ranks]. *)

val is_busy : int -> bool
(** Whether a tag word is any writer's claim sentinel. *)

val cell_bytes : int
(** Replica cell size: tag word + value word (8). *)

val encode : int -> int -> bytes
(** [encode packed value] — the 8-byte replica cell of a {!pack}ed tag
    and a value word. *)
