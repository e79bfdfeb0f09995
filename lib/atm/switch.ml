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
   whole simulation. *)

type t = {
  engine : Sim.Engine.t;
  config : Config.t;
  name : string;
  downlinks : (int, Link.t) Hashtbl.t;
  uplinks : (int, Link.t) Hashtbl.t;
  routes : (int, Link.t) Hashtbl.t;
  (* outgoing inter-switch trunks, in creation order (kept reversed) *)
  mutable trunks : Link.t list;
  mutable frames_switched : int;
  mutable drops : int;
}

let create ?(name = "switch") engine config =
  {
    engine;
    config;
    name;
    downlinks = Hashtbl.create 8;
    uplinks = Hashtbl.create 8;
    routes = Hashtbl.create 8;
    trunks = [];
    frames_switched = 0;
    drops = 0;
  }

let name t = t.name

let attach_port t nic =
  let addr = Nic.addr nic in
  let down =
    Link.create
      ~name:(Printf.sprintf "down:%s" (Addr.to_string addr))
      t.engine t.config
      ~deliver:(fun frame -> Nic.deliver nic frame)
  in
  Hashtbl.replace t.downlinks (Addr.to_int addr) down

let route t dst =
  match Hashtbl.find t.downlinks dst with
  | link -> link
  | exception Not_found -> Hashtbl.find t.routes dst

let forward t frame =
  match route t (Addr.to_int (Frame.dst frame)) with
  | exception Not_found -> t.drops <- t.drops + 1
  | link ->
      t.frames_switched <- t.frames_switched + 1;
      let now = Sim.Engine.now t.engine in
      let out = Sim.Time.add now t.config.Config.switch_latency in
      Obs.Trace.link_hop (Frame.ctx frame) ~name:t.name ~start:now ~finish:out;
      (* One closure per event, unlike a link's in-flight ring: frames
         from several inputs can reach this switch at the same instant,
         and a same-instant scheduler may fire their events in either
         order, so each event must carry its own (link, frame). *)
      Sim.Engine.schedule_at t.engine out (fun () -> Link.send link frame)

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

let add_route t ~dst link = Hashtbl.replace t.routes dst link

let frames_switched t = t.frames_switched
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
