(** Outcome codes for remote memory operations. *)

type t =
  | Ok
  | Bad_segment  (** no such (or revoked) segment at the destination *)
  | Protection  (** the source holds no right for this operation *)
  | Bounds  (** offset/length outside the segment *)
  | Stale_generation  (** the request named an old export of the segment *)
  | Write_inhibited  (** the segment has writes inhibited (synchronization) *)
  | Unpinned  (** a covered page was not pinned *)
  | Timed_out  (** a blocking wrapper's reply deadline passed (local) *)

exception Remote_error of t
(** Raised by blocking wrappers on any non-[Ok] outcome. *)

exception Timeout
(** Raised by blocking wrappers when a reply deadline passes — the
    paper's failure-detection mechanism. *)

val to_code : t -> int
val of_code : int -> t
(** Raises [Invalid_argument] on unknown codes. *)

val to_string : t -> string

val check : t -> unit
(** [check s] raises {!Remote_error} unless [s] is [Ok]
    ({!Timeout} for [Timed_out]). *)
