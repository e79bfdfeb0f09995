(* Active Messages [von Eicken et al. 1992] — the second related-work
   comparator of §6.

   An active message carries the identifier of a handler that the
   receiver runs *at interrupt level*, integrating the message into the
   computation stream: no scheduling, no blocked server thread, but —
   unlike the remote-memory model — computation does run on the
   destination processor for every message.  The paper contrasts this
   "interrupt driven messages" style with its own separation of data
   from control.  Here the tag is a process-level one
   ([Cluster.Node.set_handler]): reception and the handler run in the
   node's receive-dispatcher process, which blocks on the CPU for each
   charge and takes the next frame only when the handler returns.
   Frames are pooled, built and parsed in place (.mli). *)

let frame_tag = 0x28
let header_bytes = 8
(* [tag 1][handler 1][len 2][pad 4] *)

type handler = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> unit

type t = {
  node : Cluster.Node.t;
  frames : Atm.Frame.pool; (* the network's *)
  handlers : handler option array; (* indexed by handler id *)
  mutable sent : int;
  mutable handler_cpu : Sim.Time.t; (* receiver CPU spent in upcalls *)
}

let attach node =
  let t =
    {
      node;
      frames = Atm.Nic.pool (Cluster.Node.nic node);
      handlers = Array.make 256 None;
      sent = 0;
      handler_cpu = Sim.Time.zero;
    }
  in
  Cluster.Node.set_handler node ~tag:frame_tag (fun ~src frame ->
      let size = Bytes.length frame in
      if size < header_bytes then raise Atm.Codec.Truncated;
      let id = Bytes.get_uint8 frame 1 in
      let len = Bytes.get_uint16_le frame 2 in
      if size < header_bytes + len then raise Atm.Codec.Truncated;
      let c = Cluster.Node.costs node in
      (* Reception, in the dispatcher process: drain the frame... *)
      Cluster.Cpu.use (Cluster.Node.cpu node)
        ~category:Cluster.Cpu.cat_data_reception
        (Sim.Time.add c.Cluster.Costs.rx_interrupt
           (Cluster.Costs.frame_copy_cost c ~payload_bytes:size));
      (* ...then run the handler upcall in the same process.  The
         handler charges its own computation (category: procedure). *)
      let handler =
        match t.handlers.(id) with
        | Some handler -> handler
        | None -> failwith (Printf.sprintf "Amsg: no handler %d registered" id)
      in
      let before = Cluster.Cpu.busy_time (Cluster.Node.cpu node) in
      handler ~src frame ~pos:header_bytes ~len;
      t.handler_cpu <-
        Sim.Time.add t.handler_cpu
          (Sim.Time.diff (Cluster.Cpu.busy_time (Cluster.Node.cpu node)) before));
  t

let register t ~id handler =
  if id < 0 || id > 255 then invalid_arg "Amsg.register: id out of range";
  if Option.is_some t.handlers.(id) then invalid_arg "Amsg.register: id in use";
  t.handlers.(id) <- Some handler

let check_handler handler =
  if handler < 0 || handler > 0xFF then
    invalid_arg "Amsg.send: handler out of range"

let frame t ~len =
  if len < 0 || len > 0xFFFF then invalid_arg "Amsg.send: message too large";
  Atm.Frame.take t.frames (header_bytes + len)

let send_frame t ~dst ~handler frame =
  check_handler handler;
  let f = Atm.Frame.payload frame in
  let len = Bytes.length f - header_bytes in
  Bytes.set_uint8 f 0 frame_tag;
  Bytes.set_uint8 f 1 handler;
  Bytes.set_uint16_le f 2 len;
  Bytes.set_int32_le f 4 0l;
  let c = Cluster.Node.costs t.node in
  Cluster.Cpu.use (Cluster.Node.cpu t.node) ~category:Cluster.Cpu.cat_client
    (Sim.Time.add c.Cluster.Costs.trap
       (Cluster.Costs.frame_copy_cost c ~payload_bytes:(header_bytes + len)));
  t.sent <- t.sent + 1;
  Cluster.Node.transmit_frame t.node ~dst frame

let send t ~dst ~handler args =
  check_handler handler;
  let len = Bytes.length args in
  let f = frame t ~len in
  Bytes.blit args 0 (Atm.Frame.payload f) header_bytes len;
  send_frame t ~dst ~handler f

let sent t = t.sent
let handler_cpu t = t.handler_cpu
let node t = t.node
