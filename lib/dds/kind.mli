(** The three structurings of one distributed data structure (§5 of the
    paper applied at data-structure granularity): [Dx] manipulates the
    home segment with remote READ/WRITE/CAS only, [Rpc] ships every
    operation to the home node as a request/response message, and
    [Hybrid] runs the [Dx] fast path but falls back to [Rpc] when
    optimistic concurrency control loses too often. *)

type t = Dx | Rpc | Hybrid

val all : t list
val to_string : t -> string
