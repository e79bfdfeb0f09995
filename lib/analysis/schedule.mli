(** Schedule certificates: one decision per same-instant choice point.

    A decision records the index picked out of the FIFO-ordered enabled
    list, plus how many events were enabled (for replay validation).
    The empty certificate is the default FIFO schedule. The textual
    form is ["index/count"] pairs joined by commas — ["1/3,0/2"] — or
    ["-"] for the empty schedule; it round-trips through
    {!to_string}/{!of_string} and is what [bin/modelcheck] prints and
    [--replay] accepts. *)

type decision = { index : int; count : int }
type t = decision list

val empty : t
val length : t -> int
val to_string : t -> string

val of_string : string -> t
(** Raises [Invalid_argument] on malformed input (including an index
    out of range of its count, or a count below 2 — a one-event instant
    is not a choice point). *)
