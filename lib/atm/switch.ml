(* An output-queued ATM switch.

   Each attached host port has an uplink (node to switch) and a downlink
   (switch to node).  A frame arriving on any input is forwarded to the
   destination's downlink — or, in a multi-switch fabric, onto the trunk
   the switch's route table names for that destination — after a fixed
   switching latency; contention appears as queueing on the shared
   output link.

   A frame addressed to a destination that was never attached and has no
   route (or whose node has been cut out of the fabric) is dropped and
   counted, not fatal: a crashed or partitioned peer must not abort the
   whole simulation.

   Routing is one array read: [routes] maps every destination address to
   its output link, a downlink where the port is attached here and a
   trunk where only a route names one, and every other entry holds the
   switch's [unrouted] sentinel, which means drop and count.

   Each forwarding event runs a slot of its own, a record holding the
   (link, frame) it forwards and a [fire] thunk built once with it.
   Frames from several inputs can reach the switch at the same instant,
   and a same-instant scheduler may fire their events in either order,
   so unlike a link's in-flight ring the events cannot share one thunk
   over a FIFO: each must carry its own frame.  A fired slot goes back
   on a free stack and is refilled by a later frame.  Slots are not
   cleared after firing, so each pins its last frame until it is
   reused: a young frame written over the previous young one adds no
   remembered-set entry, where a cleared slot would add one on every
   reuse. *)

type slot = {
  mutable out : Link.t;
  mutable frame : Frame.t;
  fire : unit -> unit; (* returns the slot to the free stack, then sends *)
}

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  name : string;
  downlinks : (int, Link.t) Hashtbl.t;
  uplinks : (int, Link.t) Hashtbl.t;
  mutable routes : Link.t array; (* by destination address *)
  unrouted : Link.t; (* the [routes] entry of an unreachable destination *)
  (* outgoing inter-switch trunks, in creation order (kept reversed) *)
  mutable trunks : Link.t list;
  mutable free : slot array; (* free forwarding slots, a stack *)
  mutable free_count : int;
  mutable drops : int;
}

let create ?(name = "switch") engine config =
  let unrouted = Link.create ~name:"unrouted" engine config ~deliver:ignore in
  {
    engine;
    config;
    name;
    downlinks = Hashtbl.create 8;
    uplinks = Hashtbl.create 8;
    routes = [||];
    unrouted;
    trunks = [];
    free = [||];
    free_count = 0;
    drops = 0;
  }

(* Point [routes.(dst)] at [link], growing the table to cover [dst]. *)
let set_route t dst link =
  let size = Array.length t.routes in
  if dst >= size then begin
    let grown = Array.make (Int.max (dst + 1) (2 * size)) t.unrouted in
    Array.blit t.routes 0 grown 0 size;
    t.routes <- grown
  end;
  t.routes.(dst) <- link

let attach_port t nic =
  let addr = Nic.addr nic in
  let down =
    Link.create
      ~name:(Printf.sprintf "down:%s" (Addr.to_string addr))
      t.engine t.config
      ~deliver:(fun frame -> Nic.deliver nic frame)
  in
  Hashtbl.replace t.downlinks (Addr.to_int addr) down;
  set_route t (Addr.to_int addr) down

let route t dst =
  if dst < Array.length t.routes then t.routes.(dst) else t.unrouted

(* Push the slot back on the free stack, doubling the stack when full,
   then forward its frame. *)
let fire t slot () =
  let out = slot.out and frame = slot.frame in
  if t.free_count = Array.length t.free then begin
    let grown = Array.make (Int.max 8 (2 * t.free_count)) slot in
    Array.blit t.free 0 grown 0 t.free_count;
    t.free <- grown
  end;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1;
  Link.send out frame

(* A slot carrying [frame] to [out]: a free one refilled, or a new one
   when every slot is in flight. *)
let slot_for t out frame =
  if t.free_count = 0 then
    let rec slot = { out; frame; fire = (fun () -> fire t slot ()) } in
    slot
  else begin
    t.free_count <- t.free_count - 1;
    let slot = t.free.(t.free_count) in
    slot.out <- out;
    slot.frame <- frame;
    slot
  end

let forward t frame =
  let link = route t (Addr.to_int (Frame.dst frame)) in
  if link == t.unrouted then t.drops <- t.drops + 1
  else begin
    let now = Sim.Engine.now t.engine in
    let out = Sim.Time.add now t.config.Config.switch_latency in
    Obs.Trace.link_hop (Frame.ctx frame) ~name:t.name ~start:now ~finish:out;
    Sim.Engine.schedule_at t.engine out (slot_for t link frame).fire
  end

let uplink_for t nic_addr =
  let up =
    Link.create
      ~name:(Printf.sprintf "up:%s" (Addr.to_string nic_addr))
      t.engine t.config
      ~deliver:(fun frame -> forward t frame)
  in
  Hashtbl.replace t.uplinks (Addr.to_int nic_addr) up;
  up

let trunk_to t peer =
  let link =
    Link.create
      ~name:(Printf.sprintf "trunk:%s->%s" t.name peer.name)
      t.engine t.config
      ~deliver:(fun frame -> forward peer frame)
  in
  t.trunks <- link :: t.trunks;
  link

(* A directly attached port keeps its downlink. *)
let add_route t ~dst link =
  if not (Hashtbl.mem t.downlinks dst) then set_route t dst link

let drops t = t.drops

(* Instantaneous backlog across every output this switch drives — host
   downlinks and outgoing trunks: where output-queued contention shows
   up, and what the telemetry sampler gauges. *)
let queue_depth t =
  Hashtbl.fold (fun _ down acc -> acc + Link.queue_depth down) t.downlinks 0
  + List.fold_left (fun acc trunk -> acc + Link.queue_depth trunk) 0 t.trunks

(* Fabric edges in deterministic (port-sorted, then trunk-creation)
   order, for the fault plane: uplink i -> switch is [(Some i, None)],
   downlink switch -> j is [(None, Some j)], an inter-switch trunk is
   [(None, None)]. *)
let links t =
  let by_port (a, _) (b, _) = compare (a : int) b in
  let sorted table =
    Hashtbl.fold (fun i l acc -> (i, l) :: acc) table [] |> List.sort by_port
  in
  let ups = sorted t.uplinks |> List.map (fun (i, l) -> (Some i, None, l)) in
  let downs =
    sorted t.downlinks |> List.map (fun (j, l) -> (None, Some j, l))
  in
  let trunks = List.rev_map (fun l -> (None, None, l)) t.trunks in
  ups @ downs @ trunks
