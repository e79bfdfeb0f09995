(** The three structurings of one distributed data structure (§5 of the
    paper applied at data-structure granularity): [Dx] manipulates the
    home segment with remote READ/WRITE/CAS only, [Rpc] ships every
    operation to the home node as a request/response message, and
    [Hybrid] runs each phase of an operation by that phase's rule
    ({!Plane.rule}): the [Dx] path under a budget of lost CASes and
    then [Rpc], or one of the two outright.  Only {!Plane.phase} and
    {!Plane.flush} tell the kinds apart. *)

type t = Dx | Rpc | Hybrid

val all : t list
val to_string : t -> string
