(* Unidirectional point-to-point links.

   A link serializes frames at wire rate: a frame occupies the wire for
   [cells x cell_time], in FIFO order, and is delivered [propagation]
   later.  Within the cluster, loss is treated as catastrophic (the
   paper's reliability assumption), so by default exceeding the queue
   bound raises rather than silently dropping.  The bound is
   [fifo_capacity_cells], counted in cells: a frame is refused when its
   cells would take the backlog past it.

   The fault plane interposes here: [set_interposer] installs a verdict
   function consulted once per offered frame, and [set_overflow] switches
   the queue bound to drop-with-counter.  With no interposer installed
   and the legacy overflow policy, [send] follows exactly the original
   code path, so fault-free runs are bit-identical.  A frame offered to
   an interposer is pinned first: the interposer may keep it, or have it
   delivered twice or late, so it must never be recycled.

   Un-jittered frames wait for their arrival in a per-link in-flight
   ring, and every one of their arrival events runs the link's single
   preallocated thunk, which delivers the ring's head.  That is sound
   because their arrivals are strictly increasing in time: each frame
   holds the wire for at least one cell time, which [create] checks is
   positive.  No two of them share an instant, so any scheduler — FIFO
   or a same-instant explorer — fires them in push order.  A jittered
   frame may be overtaken, so its event keeps a closure of its own. *)

exception Overflow of string

type overflow_policy = Raise_on_overflow | Drop_on_overflow

type verdict =
  | Deliver
  | Drop of string
  | Corrupt of int
  | Duplicate of int
  | Delay of Sim.Time.t

type t = {
  name : string;
  engine : Sim.Engine.t;
  config : Config.t;
  cell_time : Sim.Time.t;
  deliver : Frame.t -> unit;
  mutable next_free : Sim.Time.t;
  mutable queued : int; (* frames accepted but not yet delivered *)
  mutable queued_cells : int; (* their cells, held to the bound *)
  ring : Frame.ring; (* un-jittered frames in flight *)
  arrive : unit -> unit; (* delivers the ring's head *)
  mutable frames_sent : int;
  mutable cells_sent : int;
  mutable wire_bytes : int;
  mutable busy_time : Sim.Time.t;
  mutable interposer : (Frame.t -> verdict) option;
  mutable overflow : overflow_policy;
  mutable drops : int; (* frames removed by the fault plane *)
  mutable overflow_drops : int; (* frames refused by a full queue *)
}

let arrive t () =
  let frame = Frame.ring_pop t.ring in
  t.queued <- t.queued - 1;
  t.queued_cells <- t.queued_cells - Aal.cells_of_len (Frame.length frame);
  t.deliver frame

let create ?(name = "link") engine config ~deliver =
  let cell_time = Config.cell_wire_time config in
  if cell_time <= 0 then invalid_arg "Link.create: cell time must be positive";
  let rec t =
    {
      name;
      engine;
      config;
      cell_time;
      deliver;
      next_free = Sim.Time.zero;
      queued = 0;
      queued_cells = 0;
      ring = Frame.ring ();
      arrive = (fun () -> arrive t ());
      frames_sent = 0;
      cells_sent = 0;
      wire_bytes = 0;
      busy_time = Sim.Time.zero;
      interposer = None;
      overflow = Raise_on_overflow;
      drops = 0;
      overflow_drops = 0;
    }
  in
  t

let set_interposer t f = t.interposer <- f
let set_overflow t policy = t.overflow <- policy

(* Accept one frame onto the wire.  [jitter] stretches only this frame's
   propagation (the wire itself stays FIFO, so a jittered frame can
   arrive after frames sent later — that is how the fault plane induces
   reordering). *)
let enqueue t frame ~jitter =
  let len = Frame.length frame in
  let cells = Aal.cells_of_len len in
  if t.queued_cells + cells > t.config.Config.fifo_capacity_cells then
    match t.overflow with
    | Raise_on_overflow -> raise (Overflow t.name)
    | Drop_on_overflow -> t.overflow_drops <- t.overflow_drops + 1
  else begin
    let tx_time = cells * t.cell_time in
    let now = Sim.Engine.now t.engine in
    let start = Sim.Time.max now t.next_free in
    t.next_free <- Sim.Time.add start tx_time;
    t.queued <- t.queued + 1;
    t.queued_cells <- t.queued_cells + cells;
    t.frames_sent <- t.frames_sent + 1;
    t.cells_sent <- t.cells_sent + cells;
    t.wire_bytes <- t.wire_bytes + Aal.wire_bytes_of_len len;
    t.busy_time <- Sim.Time.add t.busy_time tx_time;
    let arrival =
      Sim.Time.add
        (Sim.Time.add t.next_free t.config.Config.propagation)
        jitter
    in
    Obs.Trace.link_hop (Frame.ctx frame) ~name:t.name ~start ~finish:arrival;
    if jitter = Sim.Time.zero then begin
      Frame.ring_push t.ring frame;
      Sim.Engine.schedule_at t.engine arrival t.arrive
    end
    else
      Sim.Engine.schedule_at t.engine arrival (fun () ->
          t.queued <- t.queued - 1;
          t.queued_cells <- t.queued_cells - cells;
          t.deliver frame)
  end

let send t frame =
  match t.interposer with
  | None -> enqueue t frame ~jitter:Sim.Time.zero
  | Some f -> (
      Frame.pin frame;
      match f frame with
      | Deliver -> enqueue t frame ~jitter:Sim.Time.zero
      | Drop _reason -> t.drops <- t.drops + 1
      | Corrupt byte -> enqueue t (Frame.corrupted ~byte frame) ~jitter:Sim.Time.zero
      | Duplicate extra ->
          for _ = 0 to extra do
            enqueue t frame ~jitter:Sim.Time.zero
          done
      | Delay jitter -> enqueue t frame ~jitter)

let queue_depth t = t.queued
let frames_sent t = t.frames_sent
let cells_sent t = t.cells_sent
let wire_bytes t = t.wire_bytes
let busy_time t = t.busy_time
let drops t = t.drops
let overflow_drops t = t.overflow_drops
let name t = t.name
