(** The pipelined meta-instruction issue engine.

    The synchronous {!Remote_memory} paths pay the paper's Table-2 costs
    per operation: a trap and a per-cell FIFO setup per WRITE frame, a
    blocked process per READ round trip, a notification per notifying
    write. Because data transfer carries no implicit control transfer,
    none of that serialization is required between synchronization
    points — so this engine

    - {b batches} WRITEs per (remote node, segment, generation) and
      sends each batch as one scatter-gather burst frame
      ({!Remote_memory.write_burst}): one trap, one FIFO setup per burst
      group, 48 payload bytes per cell instead of 40;
    - {b windows} READs, keeping up to [window] in flight per
      (node, segment) and stalling only when the window fills;
    - {b coalesces} notify bits: a flush raises at most one notification
      per segment (the destination's per-segment policy still has the
      final word, as always);
    - preserves the synchronous ordering guarantees at {!flush} /
      {!fence}: links are FIFO, so a fence behind the burst proves
      deposit exactly as it does behind eager writes.

    {b Ordering model.} Within one pipeline: a staged write is observed
    by the issuing process's own later reads (reads overlapping staged
    bytes force a flush first); {!flush} puts every staged byte on the
    wire, so a {!Remote_memory.cas_wait} after it keeps the
    release-ordering of the synchronous path; {!fence} additionally
    drains the read window and runs a {!Remote_memory.fence} round trip, after
    which every prior write has been deposited (or its nack raised).
    Between {!flush} points, staged writes are {e not yet visible} to
    remote readers — the race detector models this: a batched write's
    visibility witness is its flush. *)

type config = {
  window : int;  (** max in-flight READs per (node, segment) *)
  max_batch_bytes : int;
      (** flush a staging buffer at this many bytes (or at 64 absorbed
          writes) *)
}

val pipelined_config : ?window:int -> ?max_batch_bytes:int -> unit -> config
(** Window 8 and 32 KB batches unless overridden. *)

type t

val create : config:config -> Remote_memory.t -> t
val write : t -> Descriptor.t -> off:int -> ?notify:bool -> bytes -> unit
(** Stage a write. It reaches the wire at the next {!flush} of its
    (node, segment) — or sooner, when the staging buffer hits a batch
    bound, a read overlaps it, or a doorbell forces it out. Local validation (staleness, rights, bounds)
    still happens here, so failures surface at the same program point as
    {!Remote_memory.write}. Zero-length doorbell writes are never
    staged. The bytes are copied into the burst frame at the flush, not
    here: [data] must not change until then. *)

val read_submit :
  t ->
  Descriptor.t ->
  soff:int ->
  count:int ->
  dst:Remote_memory.buffer ->
  doff:int ->
  unit ->
  unit
(** Issue a read into the window: returns as soon as the request is on
    the wire, blocking only while the window is full (on the oldest
    outstanding operation). Completion failures raise at the operation
    that retires them — {!drain} or {!fence} to collect all. Overlapping
    staged writes are flushed first, so the read observes program
    order. *)

val flush : t -> Descriptor.t -> unit
(** Send the staging buffer for the descriptor's (node, segment) as one
    burst frame. No-op when nothing is staged. *)

val drain : t -> unit
(** Wait for every windowed READ to retire, raising the first
    failure encountered (in issue order per (node, segment)). *)

val fence : t -> Descriptor.t -> unit
(** Full ordering barrier toward one segment: {!flush}, drain its
    window, then {!Remote_memory.fence} — on return every write this
    node issued toward the segment has been deposited, or the fence
    raised the recorded nack. Same guarantee as the synchronous path's
    fence. *)

(** {1 Statistics} *)

type stats = {
  mutable merged_extents : int;  (** extents combined by adjacency/overlap *)
  mutable flushes : int;  (** burst frames sent *)
  mutable window_stalls : int;  (** submits that blocked on a full window *)
}

val stats : t -> stats
(** A snapshot copy; mutating it does not affect the engine. *)

