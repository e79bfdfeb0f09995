(* A cluster workstation: CPU, NIC, address spaces, and the inbound
   protocol demultiplexer.

   Protocols (remote memory, RPC) claim tag bytes; the node runs one
   receive-dispatcher process that reads each frame's leading tag byte
   and hands the frame to the owning protocol.  By convention a handler
   performs only bounded, interrupt-level work inline (charging the CPU
   as it goes) and spawns processes for anything longer, so the
   dispatcher is never blocked behind a long service.  A handler reads
   the payload only until it returns, so the dispatcher then releases
   the frame: this is the one place a pooled frame is recycled. *)

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
  handlers : handler array; (* indexed by tag byte; [unclaimed] if free *)
  prng : Sim.Prng.t;
  mutable started : bool;
  mutable down : bool;
  mutable subscribers : (event -> unit) list; (* in subscription order *)
}

(* The free slot's handler; [dispatch] reports an unclaimed tag instead
   of calling it. *)
let unclaimed ~src:_ _ = ()

let create engine ~costs ~nic ~prng =
  {
    addr = Atm.Nic.addr nic;
    engine;
    costs;
    cpu = Cpu.create ~name:(Atm.Addr.to_string (Atm.Nic.addr nic)) ();
    nic;
    spaces = Hashtbl.create 8;
    next_asid = 1;
    handlers = Array.make 256 unclaimed;
    prng;
    started = false;
    down = false;
    subscribers = [];
  }

let addr t = t.addr
let engine t = t.engine
let costs t = t.costs
let cpu t = t.cpu
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
  if t.handlers.(tag) != unclaimed then
    invalid_arg "Node.set_handler: tag already claimed";
  t.handlers.(tag) <- handler

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

let dispatch t frame =
  let payload = Atm.Frame.payload frame in
  if Bytes.length payload = 0 then failwith "Node.dispatch: empty frame";
  let tag = Char.code (Bytes.get payload 0) in
  let handler = t.handlers.(tag) in
  if handler == unclaimed then
    failwith
      (Printf.sprintf "%s: no protocol handler for tag 0x%02x"
         (Atm.Addr.to_string t.addr) tag);
  (* The frame's trace context is visible to serve-side hooks for
     exactly the synchronous prefix of the handler — the interrupt-level
     work done before any spawn or block. *)
  let node = Atm.Addr.to_int t.addr in
  Obs.Trace.dispatch_begin ~node (Atm.Frame.ctx frame);
  handler ~src:(Atm.Frame.src frame) payload;
  Obs.Trace.dispatch_end ~node;
  Atm.Frame.release frame

let start t =
  if not t.started then begin
    t.started <- true;
    spawn t ~name:(Atm.Addr.to_string t.addr ^ " rx-dispatcher") (fun () ->
        while true do
          let frame = Atm.Nic.receive t.nic in
          (* A crashed node absorbs frames without reacting; the paper's
             failure-detection story is timeouts at the peers. *)
          if not t.down then dispatch t frame
        done)
  end
