(** Unidirectional point-to-point links with wire-rate serialization.

    Frames occupy the wire in FIFO order for as long as their cells take
    to serialize, then arrive at the far end one propagation delay later.
    Loss inside the cluster is catastrophic under the paper's reliability
    assumption, so by default queue overflow raises {!Overflow} instead
    of dropping; the fault plane flips that policy and interposes on
    every offered frame.  The queue holds at most the configuration's
    [fifo_capacity_cells] cells. *)

exception Overflow of string

type overflow_policy =
  | Raise_on_overflow  (** legacy: loss is catastrophic *)
  | Drop_on_overflow  (** fault plane: count and discard *)

(** What the fault plane decided for one offered frame. *)
type verdict =
  | Deliver  (** pass through untouched *)
  | Drop of string  (** discard; the string labels the cause *)
  | Corrupt of int  (** flip the payload byte at this index (mod length) *)
  | Duplicate of int  (** deliver, plus this many extra copies *)
  | Delay of Sim.Time.t
      (** stretch this frame's propagation only — later frames may
          overtake it, which is how reordering is induced *)

type t

val create :
  ?name:string -> Sim.Engine.t -> Config.t -> deliver:(Frame.t -> unit) -> t
(** [deliver] is invoked at the receiving end at arrival time. *)

val send : t -> Frame.t -> unit
(** Queue a frame for transmission. Never blocks the caller; the frame is
    delivered when its last cell would have arrived. With an interposer
    installed, the frame is first pinned ({!Frame.pin}), then submitted
    to it and its verdict applied. *)

val set_interposer : t -> (Frame.t -> verdict) option -> unit
(** Install (or remove, with [None]) the fault plane's per-frame verdict
    function. With [None] installed, [send] is bit-identical to the
    fault-free build. *)

val set_overflow : t -> overflow_policy -> unit

val name : t -> string

(** {1 Statistics} *)

val queue_depth : t -> int
(** Frames (not cells) accepted but not yet delivered — the instantaneous
    wire-side backlog a telemetry sampler reads as a gauge. *)

val frames_sent : t -> int
val cells_sent : t -> int
val wire_bytes : t -> int
val busy_time : t -> Sim.Time.t

val drops : t -> int
(** Frames removed by the fault plane's [Drop] verdict. *)

val overflow_drops : t -> int
(** Frames refused by a full queue under [Drop_on_overflow]. *)
