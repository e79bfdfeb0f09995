(** Recovery policies for remote-memory operations (§3.7).

    The paper's failure recipe: timeouts detect, idempotent operations
    reissue, and generation numbers make restarts safe because stale
    descriptors fail cleanly and can be revalidated through the name
    service. A {!policy} packages attempts, per-attempt timeout,
    exponential backoff, and an optional descriptor revalidator; the
    [*_with] operations in {!Remote_memory} execute under one. *)

(** How a failure should be treated. *)
type class_ =
  | Retryable
      (** Silence — timeouts from loss, corruption (discarded at the
          NIC), partitions, crashed peers. Reissue verbatim. *)
  | Revalidate
      (** The remote no longer recognizes the (segment, generation):
          [Stale_generation] or [Bad_segment]. Re-import through the
          name service, then reissue. *)
  | Terminal
      (** Rights or addressing errors — retrying hides a bug. *)

val classify : Status.t -> class_

type policy = {
  attempts : int;  (** total tries, including the first (>= 1) *)
  timeout : Sim.Time.t;  (** per-attempt reply timeout *)
  backoff : Sim.Time.t;  (** gap after the first failed attempt *)
  revalidate : (Descriptor.t -> bool) option;
      (** Called on a [Revalidate]-class failure; refresh the descriptor
          (typically a forced name-service re-import) and return whether
          another attempt is worthwhile. [None] makes such failures
          terminal. *)
}

val policy :
  ?attempts:int ->
  ?timeout:Sim.Time.t ->
  ?backoff:Sim.Time.t ->
  unit ->
  policy
(** Defaults: 4 attempts, 5 ms timeout, 200 us backoff; no revalidator
    ({!with_revalidate} adds one).  The backoff doubles per further
    failure up to a 20 ms ceiling. The backoff floor deliberately sits
    above the analysis layer's 150 us unbounded-retry lint floor. *)

val timeout : policy -> Sim.Time.t

val backoff_after : policy -> attempt:int -> Sim.Time.t
(** Backoff to sleep after failed attempt number [attempt] (0-based):
    [backoff * 2^attempt], capped at 20 ms. *)

val with_revalidate : policy -> (Descriptor.t -> bool) -> policy
