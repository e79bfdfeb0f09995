(** Write-once variables for process synchronization.

    The standard way for one simulated activity to hand a result to
    another: the consumer blocks in {!read} until the producer calls
    {!fill}. *)

type 'a t

val create : ?name:string -> unit -> 'a t
(** [name] labels the ivar in deadlock reports (default ["ivar"]). *)

val fill : 'a t -> 'a -> unit
(** Fill and wake all readers (in blocking order). Raises
    [Invalid_argument] if already full. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when full. *)

val read : 'a t -> 'a
(** Return the value, blocking the current process until filled. *)

val is_full : 'a t -> bool
