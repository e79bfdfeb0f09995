(** Unbounded FIFO message queues with blocking receive.

    Messages are delivered in send order; blocked receivers are woken in
    blocking order. *)

type 'a t

val create : ?name:string -> ?daemon:bool -> unit -> 'a t
(** [name] labels the mailbox in deadlock reports. [daemon] marks a
    queue whose blocked receivers idle between requests by design (a
    server request queue): they are excluded from deadlock detection. *)

val send : 'a t -> 'a -> unit
(** Never blocks. Wakes the oldest blocked receiver, if any. *)

val recv : 'a t -> 'a
(** Dequeue the oldest message, blocking the current process if empty. *)
