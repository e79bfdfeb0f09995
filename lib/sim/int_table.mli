(** Hash tables keyed by ints.

    Keys hash with [Hashtbl.hash], the generic table's own hash, so
    buckets, and the order of a fold, are those of a generic [Hashtbl]
    at default settings; they compare with [Int.equal], not the
    runtime's generic comparison. Unlike a generic table, these are
    never randomised, whatever [OCAMLRUNPARAM] says. *)

include Hashtbl.S with type key = int
