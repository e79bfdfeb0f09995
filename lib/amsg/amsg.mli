(** Active Messages [von Eicken et al. 1992] — §6's second related-work
    comparator: every message carries a handler id that the receiver
    runs at interrupt level. No scheduling, no blocked threads, but
    computation runs on the destination CPU for every message, which is
    precisely what the remote-memory model avoids. *)

type t

type handler = src:Atm.Addr.t -> bytes -> unit

val attach : Cluster.Node.t -> t
(** Claim the active-message frame tag on a node. *)

val register : t -> id:int -> handler -> unit
(** Install a handler (ids 0–255). The handler runs at interrupt level
    on arrival: it should be short and charge its own computation. *)

val send : t -> dst:Atm.Addr.t -> handler:int -> bytes -> unit
(** Fire-and-forget: pay the send-side trap and FIFO copy, then return. *)

(** {1 Statistics} *)

val sent : t -> int
val delivered : t -> int
(** Test-only: the active-message tests count handler upcalls. *)

val handler_cpu : t -> Sim.Time.t
(** Receiver CPU consumed inside handler upcalls. *)

val node : t -> Cluster.Node.t
