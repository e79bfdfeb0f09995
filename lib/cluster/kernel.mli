(** Generic kernel-path helpers shared by the protocol layers. *)

val syscall : Node.t -> name:string -> (unit -> 'a) -> 'a
(** Charge one syscall entry/exit on the node's CPU, then run the body
    (which may itself consume CPU or block). *)
