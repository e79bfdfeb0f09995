(* A cluster workstation: CPU, NIC, address spaces, and the inbound
   protocol demultiplexer.

   Protocols (remote memory, active messages, RPC) claim tag bytes, and
   the node hands each received frame, in arrival order, to the handler
   of its leading tag byte.  An interrupt-level handler (remote
   memory's, active messages') runs from the event that delivers its
   frame, outside every process: it charges the CPU through a [charger]
   of the node's and ends with [dispatched].  The next frame is taken
   only then.  A process-level handler (only the RPC baseline's) may
   block: it runs in the node's one receive-dispatcher process, which
   otherwise stays parked, and is resumed inline for such a frame, in
   the event that takes it.  So an interrupt-level frame costs no
   continuation, and every frame is taken, served and charged in the
   order and at the instants one dispatcher process draining the FIFO
   would give.  A handler reads the payload
   only until it is done, and the frame is then released in [dispatch]:
   the one place a pooled frame is recycled. *)

type handler = src:Atm.Addr.t -> bytes -> unit

type event = ..

type t = {
  addr : Atm.Addr.t;
  engine : Sim.Engine.t;
  costs : Costs.t;
  cpu : Cpu.t;
  nic : Atm.Nic.t;
  spaces : (int, Address_space.t) Hashtbl.t;
  mutable next_asid : int;
  handlers : handler option array; (* indexed by tag byte *)
  interrupt : Bytes.t; (* by tag byte, 1 when its handler runs at interrupt level *)
  mutable reader : Sim.Proc.t; (* the receive FIFO's reader, built at [start] *)
  idle : Sim.Wait.t; (* the dispatcher process waits for a frame here *)
  mutable frame : Atm.Frame.t; (* the frame in dispatch *)
  prng : Sim.Prng.t;
  mutable started : bool;
  mutable down : bool;
  mutable subscribers : (event -> unit) list; (* in subscription order *)
}

let idling = Sim.Engine.Text "idle"

let create engine ~costs ~nic ~prng =
  let addr = Atm.Nic.addr nic in
  let cpu = Cpu.create ~name:(Atm.Addr.to_string addr) engine in
  {
    addr;
    engine;
    costs;
    cpu;
    nic;
    spaces = Hashtbl.create 8;
    next_asid = 1;
    handlers = Array.make 256 None;
    interrupt = Bytes.make 256 '\000';
    reader = Sim.Proc.nobody;
    idle = Sim.Wait.create ();
    frame = Atm.Nic.none;
    prng;
    started = false;
    down = false;
    subscribers = [];
  }

let addr t = t.addr
let engine t = t.engine
let costs t = t.costs
let cpu t = t.cpu
let dispatcher t = Atm.Addr.to_string t.addr ^ " rx-dispatcher"
let charger t arg = Cpu.charger t.cpu (Sim.Engine.Text (dispatcher t)) arg
let nic t = t.nic
let prng t = t.prng

let spawn ?name t body = Sim.Proc.spawn ?name t.engine body

let new_address_space t =
  let asid = t.next_asid in
  t.next_asid <- asid + 1;
  let space = Address_space.create ~asid () in
  Hashtbl.replace t.spaces asid space;
  space

let set_handler t ~tag handler =
  if tag < 0 || tag > 255 then invalid_arg "Node.set_handler: tag out of range";
  if Option.is_some t.handlers.(tag) then
    invalid_arg "Node.set_handler: tag already claimed";
  t.handlers.(tag) <- Some handler

let set_interrupt_handler t ~tag handler =
  set_handler t ~tag handler;
  Bytes.set_uint8 t.interrupt tag 1

let transmit ?ctx t ~dst payload = Atm.Nic.transmit ?ctx t.nic ~dst payload
let transmit_frame ?ctx t ~dst frame = Atm.Nic.send ?ctx t.nic ~dst frame

let set_down t down = t.down <- down

(* The node's event stream.  Every emitter builds its event under
   [if observed t] (a constant constructor needs no test), so with no
   subscriber an instrumented path costs one field test and allocates
   nothing. *)
let observed t = t.subscribers != []
let subscribe t f = t.subscribers <- t.subscribers @ [ f ]
let unsubscribe t f = t.subscribers <- List.filter (fun g -> g != f) t.subscribers

let rec deliver event = function
  | [] -> ()
  | f :: rest ->
      f event;
      deliver event rest

let emit t event = deliver event t.subscribers

let tag frame = Char.code (Bytes.get (Atm.Frame.payload frame) 0)

(* [next] has checked that the tag is claimed. *)
let handle t frame =
  Option.get t.handlers.(tag frame) ~src:(Atm.Frame.src frame) (Atm.Frame.payload frame)

(* The end of [t.frame]'s dispatch, once its handler is done with the
   payload. *)
let dispatch t =
  Obs.Trace.dispatch_end ~node:(Atm.Addr.to_int t.addr);
  Atm.Frame.release t.frame

(* Take received frames in order and dispatch each, until one needs the
   dispatcher process (returned, not yet handled), or an interrupt-level
   handler is running, or the FIFO is empty and the reader listens
   ([Atm.Nic.none]).  From here until [dispatch], the frame's trace
   context is the node's inbound one, which serve-side spans open
   under. *)
let rec next t =
  let frame = Atm.Nic.read t.nic t.reader in
  if frame == Atm.Nic.none then frame
  else if t.down then
    (* A crashed node absorbs frames without reacting; the paper's
       failure-detection story is timeouts at the peers. *)
    next t
  else begin
    if Atm.Frame.length frame = 0 then failwith "Node.dispatch: empty frame";
    let tag = tag frame in
    if Option.is_none t.handlers.(tag) then
      failwith
        (Printf.sprintf "%s: no protocol handler for tag 0x%02x"
           (Atm.Addr.to_string t.addr) tag);
    t.frame <- frame;
    Obs.Trace.dispatch_begin ~node:(Atm.Addr.to_int t.addr) (Atm.Frame.ctx frame);
    if Bytes.get_uint8 t.interrupt tag = 1 then begin
      handle t frame;
      Atm.Nic.none
    end
    else frame
  end

(* The reader's callback, on an arrival, and the end of an
   interrupt-level handler: dispatch on, resuming the process for a
   process-level frame. *)
let resume t = if next t != Atm.Nic.none then Sim.Wait.resume t.idle

let dispatched t =
  dispatch t;
  resume t

(* The dispatcher process: it runs the process-level handlers, and
   parks whenever [next] has none for it. *)
let rec serve t frame =
  if frame == Atm.Nic.none then begin
    Sim.Wait.park ~daemon:true t.idle ~resource:idling;
    serve t t.frame
  end
  else begin
    handle t frame;
    dispatch t;
    serve t (next t)
  end

let start t =
  if not t.started then begin
    t.started <- true;
    let name = dispatcher t in
    t.reader <- Sim.Proc.callback t.engine (Sim.Engine.Text name) (fun () -> resume t);
    spawn t ~name (fun () -> serve t (next t))
  end
