(** Hash tables keyed by ints, open-addressed: entering a new key
    allocates nothing unless the table grows, and neither do [find],
    [mem] and [remove]. A key has at most one value. [min_int] marks a
    free slot and is not a key. A [fold] runs in slot order, which
    depends on the table's size and history, never on [OCAMLRUNPARAM]:
    a caller whose result depends on order sorts it. *)

type 'a t

val create : int -> 'a t
(** An empty table sized for [n] keys; it grows as needed. *)

val find : 'a t -> int -> 'a
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Raises [Invalid_argument] on [min_int]. *)

val remove : 'a t -> int -> unit
val length : 'a t -> int
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val reset : 'a t -> unit
