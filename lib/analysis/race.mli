(** The happens-before race checker.

    Two accesses race when they touch overlapping bytes of the same
    region, come from different agents, at least one writes, and
    neither's memory effect is ordered before the other's issue by the
    recorded happens-before relation. Pairs whose overlap is confined
    to synchronization words — words only ever stored by CAS, or
    declared via {!Monitor.declare_sync_word} — are exempt: polling a
    lock word and CAS contention are the model's intended idioms, not
    data races. *)

type t = {
  key : Access.seg_key;
  seg_name : string;
  a : Access.t;
  b : Access.t;
}

val find : Monitor.t -> t list
(** All race pairs, deduplicated per (region, agent pair, overlap
    start), in discovery order: regions in the order of their first
    access, and within one region by the pair's earlier access, then
    its later one. *)

val describe : t -> string
