(* Host-network interfaces, modeled after the FORE TCA-100.

   The real interface exposes two FIFOs accessed a word at a time with no
   DMA.  The CPU cost of those word copies is charged by the kernel
   emulation layer (which knows whose CPU pays); the NIC itself models the
   wire side: outbound frames are routed onto a link, inbound frames queue
   in a bounded receive FIFO until the host drains them.

   Two drop paths exist for the fault plane's benefit: an unroutable
   destination (a crashed or partitioned peer) counts a tx route drop
   instead of aborting, and an arriving frame whose AAL checksum no
   longer matches its payload counts a receive error and is discarded —
   corruption surfaces as loss, never as silent bad data.

   The receive FIFO is a frame ring with one reader, a callback waiter
   (the node's dispatch, which runs at interrupt level).  A reader that
   finds the FIFO empty listens, and the next frame to arrive is handed
   straight to it, never queued (so it is not pending): the reader's
   callback is scheduled at the arrival instant, and reads the frame.
   The handoff slot gets [vacant] back once taken, as a popped ring slot
   does, so neither keeps a frame alive. *)

exception Rx_overflow of Addr.t

type t = {
  addr : Addr.t;
  config : Config.t;
  mutable route : Addr.t -> Link.t option;
  rx : Frame.ring;
  rx_label : Sim.Engine.label;
  mutable reader : Sim.Proc.t; (* the last reader to listen here *)
  mutable listening : bool; (* [reader] waits to be handed a frame *)
  mutable handed : Frame.t; (* handed to [reader], not yet read *)
  pool : Frame.pool; (* the network's *)
  mutable rx_cells_pending : int;
  mutable bytes_tx : int;
  mutable crc_errors : int;
  mutable route_drops : int;
}

let no_route _ = failwith "Nic: route not installed"

(* Fills the handoff slot while no frame is being handed over. *)
let vacant = Frame.make ~src:(Addr.of_int 0) ~dst:(Addr.of_int 0) Bytes.empty

let create config ~pool addr =
  {
    addr;
    config;
    route = no_route;
    rx = Frame.ring ();
    rx_label = Sim.Engine.Quoted ("ring", Addr.to_string addr ^ " rx fifo");
    reader = Sim.Proc.nobody;
    listening = false;
    handed = vacant;
    pool;
    rx_cells_pending = 0;
    bytes_tx = 0;
    crc_errors = 0;
    route_drops = 0;
  }

let addr t = t.addr
let pool t = t.pool
let set_route t route = t.route <- route

let route_frame t ~dst frame =
  match t.route dst with
  | None -> t.route_drops <- t.route_drops + 1
  | Some link ->
      let len = Frame.length frame in
      t.bytes_tx <- t.bytes_tx + len;
      Link.send link frame

let transmit ?ctx t ~dst payload =
  if Addr.equal dst t.addr then
    invalid_arg "Nic.transmit: destination is self";
  Obs.Trace.frame_sent ctx ~node:(Addr.to_int t.addr);
  route_frame t ~dst (Frame.make ?ctx ~src:t.addr ~dst payload)

let send ?ctx t ~dst frame =
  if Addr.equal dst t.addr then
    invalid_arg "Nic.transmit: destination is self";
  Obs.Trace.frame_sent ctx ~node:(Addr.to_int t.addr);
  Frame.stamp frame ~src:t.addr ~dst ctx;
  route_frame t ~dst frame

let deliver t frame =
  if not (Frame.intact frame) then
    (* Checksum mismatch: the interface hardware discards the frame as it
       reassembles, so the host never sees it — corruption becomes loss. *)
    t.crc_errors <- t.crc_errors + 1
  else begin
    let cells = Aal.cells_of_len (Frame.length frame) in
    if t.rx_cells_pending + cells > t.config.Config.fifo_capacity_cells then
      raise (Rx_overflow t.addr);
    Obs.Trace.frame_delivered (Frame.ctx frame) ~node:(Addr.to_int t.addr);
    t.rx_cells_pending <- t.rx_cells_pending + cells;
    if t.listening then begin
      t.listening <- false;
      t.handed <- frame;
      Sim.Proc.unpark t.reader
    end
    else Frame.ring_push t.rx frame
  end

let none = vacant

let taken t frame =
  t.rx_cells_pending <- t.rx_cells_pending - Aal.cells_of_len (Frame.length frame);
  frame

let read t reader =
  if t.listening then invalid_arg "Nic.read: the receive FIFO has one reader";
  if t.handed != vacant then begin
    let frame = t.handed in
    t.handed <- vacant;
    taken t frame
  end
  else if Frame.ring_length t.rx > 0 then taken t (Frame.ring_pop t.rx)
  else begin
    t.reader <- reader;
    t.listening <- true;
    Sim.Proc.listen reader ~resource:t.rx_label ~daemon:true;
    none
  end

let pending_frames t = Frame.ring_length t.rx

let bytes_tx t = t.bytes_tx
let crc_errors t = t.crc_errors
let route_drops t = t.route_drops
