(** Exported remote-memory segments: contiguous pieces of a process'
    virtual memory made remotely accessible, with per-importer rights,
    a notification policy, and the write-inhibit synchronization flag. *)

type notify_policy =
  | Always  (** notify on every arriving request *)
  | Never  (** never notify *)
  | Conditional  (** notify only when the request's notify bit is set *)

type t

val create :
  id:int ->
  name:string ->
  space:Cluster.Address_space.t ->
  base:int ->
  len:int ->
  generation:Generation.t ->
  default_rights:Rights.t ->
  notification:Notification.t ->
  policy:notify_policy ->
  t
(** Raises [Invalid_argument] on an empty or negative extent. *)

val id : t -> int
val name : t -> string
val space : t -> Cluster.Address_space.t
val base : t -> int
val length : t -> int
val generation : t -> Generation.t

val default_rights : t -> Rights.t
(** The rights granted to importers without an explicit {!grant} — what
    a restart re-export reproduces. *)

val notification : t -> Notification.t

val policy : t -> notify_policy

val is_revoked : t -> bool
val mark_revoked : t -> unit

val write_inhibited : t -> bool
val set_write_inhibit : t -> bool -> unit
(** Test-only: a segment that drops WRITEs, which no workload inhibits. *)

val grant : t -> importer:Atm.Addr.t -> Rights.t -> unit
(** Override the default rights for one importing node.
    Test-only: per-importer rights, which no workload grants. *)

val rights_for : t -> importer:Atm.Addr.t -> Rights.t

val contains : t -> off:int -> count:int -> bool
val should_notify : t -> requested:bool -> bool
val policy_to_string : notify_policy -> string
