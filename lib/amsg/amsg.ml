(* Active Messages [von Eicken et al. 1992] — the second related-work
   comparator of §6.

   An active message carries the identifier of a handler that the
   receiver runs *at interrupt level*, integrating the message into the
   computation stream: no scheduling, no blocked server thread, but —
   unlike the remote-memory model — computation does run on the
   destination processor for every message.  The paper contrasts this
   "interrupt driven messages" style with its own separation of data
   from control.  Here too the tag is an interrupt-level one
   ([Cluster.Node.set_interrupt_handler]): a message is served from the
   event that takes its frame, in no process, as remote memory serves
   a request.  Its steps are top-level functions over [t], each ending
   in a charge on the node's charger whose next step runs where a
   process's [Cpu.use] would have returned: reception, then the handler
   (which runs to completion and returns its span), then at most one
   reply frame, then [Cluster.Node.dispatched].  The message in service
   waits in [t]'s fields across the charges, so serving one allocates
   nothing.  Frames are pooled, built and parsed in place (.mli). *)

let frame_tag = 0x28
let header_bytes = 8
(* [tag 1][handler 1][len 2][pad 4] *)

type handler = src:Atm.Addr.t -> bytes -> pos:int -> len:int -> Sim.Time.t

type t = {
  node : Cluster.Node.t;
  frames : Atm.Frame.pool; (* the network's *)
  handlers : handler option array; (* indexed by handler id *)
  mutable irq : t Cluster.Cpu.charger option; (* set by [attach] *)
  (* The message in service, from its arrival to [served]: *)
  mutable src : Atm.Addr.t;
  mutable payload : bytes;
  mutable id : int;
  mutable len : int;
  mutable before : Sim.Time.t; (* CPU busy time as its handler began *)
  mutable reply : Atm.Frame.t; (* [Atm.Nic.none] when it asked for none *)
  mutable sent : int;
  mutable handler_cpu : Sim.Time.t; (* CPU busy time from handlers to [served] *)
}

let charge t ~category span next =
  match t.irq with
  | Some irq -> Cluster.Cpu.charge irq ~category span next
  | None -> invalid_arg "Amsg: serving before attach"

(* What a sender's CPU pays for a frame: the trap and the FIFO copy. *)
let send_cost t frame =
  let c = Cluster.Node.costs t.node in
  Sim.Time.add c.Cluster.Costs.trap
    (Cluster.Costs.frame_copy_cost c
       ~payload_bytes:(Bytes.length (Atm.Frame.payload frame)))

let served t =
  let cpu = Cluster.Node.cpu t.node in
  t.handler_cpu <-
    Sim.Time.add t.handler_cpu (Sim.Time.diff (Cluster.Cpu.busy_time cpu) t.before);
  Cluster.Node.dispatched t.node

let send_frame t ~dst frame =
  t.sent <- t.sent + 1;
  Cluster.Node.transmit_frame t.node ~dst frame

let replied t =
  let f = t.reply in
  t.reply <- Atm.Nic.none;
  send_frame t ~dst:t.src f;
  served t

(* The handler's span is charged: the reply, if it asked for one, pays
   what any frame's sender pays. *)
let handled t =
  if t.reply == Atm.Nic.none then served t
  else charge t ~category:Cluster.Cpu.cat_client (send_cost t t.reply) replied

let received t =
  let handler =
    match t.handlers.(t.id) with
    | Some handler -> handler
    | None -> failwith (Printf.sprintf "Amsg: no handler %d registered" t.id)
  in
  t.before <- Cluster.Cpu.busy_time (Cluster.Node.cpu t.node);
  let span = handler ~src:t.src t.payload ~pos:header_bytes ~len:t.len in
  if Sim.Time.equal span Sim.Time.zero then handled t
  else charge t ~category:Cluster.Cpu.cat_procedure span handled

(* Reception: the rx interrupt and the drain of the whole frame. *)
let arrived t ~src frame =
  let size = Bytes.length frame in
  if size < header_bytes then raise Atm.Codec.Truncated;
  let len = Bytes.get_uint16_le frame 2 in
  if size < header_bytes + len then raise Atm.Codec.Truncated;
  t.src <- src;
  t.payload <- frame;
  t.id <- Bytes.get_uint8 frame 1;
  t.len <- len;
  let c = Cluster.Node.costs t.node in
  charge t ~category:Cluster.Cpu.cat_data_reception
    (Sim.Time.add c.Cluster.Costs.rx_interrupt
       (Cluster.Costs.frame_copy_cost c ~payload_bytes:size))
    received

let attach node =
  let t =
    {
      node;
      frames = Atm.Nic.pool (Cluster.Node.nic node);
      handlers = Array.make 256 None;
      irq = None;
      src = Cluster.Node.addr node;
      payload = Bytes.empty;
      id = 0;
      len = 0;
      before = Sim.Time.zero;
      reply = Atm.Nic.none;
      sent = 0;
      handler_cpu = Sim.Time.zero;
    }
  in
  t.irq <- Some (Cluster.Node.charger node t);
  Cluster.Node.set_interrupt_handler node ~tag:frame_tag (fun ~src frame ->
      arrived t ~src frame);
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

let write_header ~handler frame =
  check_handler handler;
  let f = Atm.Frame.payload frame in
  Bytes.set_uint8 f 0 frame_tag;
  Bytes.set_uint8 f 1 handler;
  Bytes.set_uint16_le f 2 (Bytes.length f - header_bytes);
  Bytes.set_int32_le f 4 0l

let reply t ~handler frame =
  if t.reply != Atm.Nic.none then invalid_arg "Amsg.reply: one reply per message";
  write_header ~handler frame;
  t.reply <- frame

let prepare t ~handler frame =
  write_header ~handler frame;
  send_cost t frame

let send t ~dst ~handler args =
  check_handler handler;
  let len = Bytes.length args in
  let f = frame t ~len in
  Bytes.blit args 0 (Atm.Frame.payload f) header_bytes len;
  Cluster.Cpu.use (Cluster.Node.cpu t.node) ~category:Cluster.Cpu.cat_client
    (prepare t ~handler f);
  send_frame t ~dst f

let sent t = t.sent
let handler_cpu t = t.handler_cpu
let node t = t.node
