(** Protocol-conformance lint over the monitor's event trace: uses of
    the remote-memory protocol that "work" in the sense that the kernel
    emulation tolerates them, but indicate a broken workload. *)

type finding = {
  rule : string;
      (** one of: ["stale-generation"], ["revoked-segment"], ["rights"],
          ["bounds"], ["write-inhibit"], ["unpinned"], ["poll-never"],
          ["notify-storm"], ["unbounded-retry"] *)
  agent : string;  (** the offending agent *)
  key : Access.seg_key;
  detail : string;
}

val poll_threshold : int
(** Repeated identical READs of one location before ["poll-never"]
    fires (8).
    Test-only: where poll-never begins, one READ past it, which no report
    names. *)

val check : Monitor.t -> finding list
(** One finding per (rule, agent, region): the rejection, poll-never and
    notify-storm findings in first-occurrence order, then the
    unbounded-retry ones by agent, region and word. *)

val describe : finding -> string
