(** Ivy-style shared virtual memory (fixed manager, write-invalidate) —
    the §6 related-work comparator the paper argues against: page-grain
    sharing invites false sharing, and every fault costs control
    transfer at the faulting machine, the manager and the owner. *)

val page_bytes : int
(** 4096. *)

type page_state = Invalid | Read_shared | Write_owned

type t

val attach : Rpckit.Transport.t -> manager:Atm.Addr.t -> pages:int -> t
(** Join the shared region. The node whose address equals [manager]
    becomes the manager and initially owns every page. All participants
    must use the same [manager] and [pages]. *)

val read : t -> addr:int -> len:int -> bytes
(** Read from the shared region, faulting pages in as needed (each
    fault is a manager RPC plus a 4 KB page transfer). *)

val write : t -> addr:int -> bytes -> unit
(** Write to the shared region, acquiring ownership first (invalidating
    every cached copy). *)

(** {1 Introspection} *)

val state : t -> page:int -> page_state
(** Test-only: a page's coherence state, which the SVM reports show only as
    fault counts. *)

val read_faults : t -> int
