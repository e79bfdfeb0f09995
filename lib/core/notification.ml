(* The control-transfer half of the model.

   Data arrival never implicitly activates the destination process; when
   a request does ask for notification (and the segment's policy allows
   it), a record becomes readable on the segment's notification file
   descriptor.  A process can block reading the descriptor ("select"/
   "read" style) or install a signal handler for an upcall.  Delivery to
   user level costs the measured 260 microseconds (Table 2). *)

type kind = Write_arrived | Read_served | Cas_applied

type record = { src : Atm.Addr.t; kind : kind; off : int; count : int }

type t = {
  node : Cluster.Node.t;
  segment : int; (* the exported segment's id; 0 for a completion fd *)
  deliveries : (Obs.Ctx.t option, record) Sim.Pool.t;
  deliver : Obs.Ctx.t option -> record -> unit; (* [deliver] on this fd *)
  queue : record Queue.t;
  waiters : record Sim.Proc.sleepers;
  label : Sim.Engine.label;
  mutable signal_handler : (record -> unit) option;
  mutable posted : int;
}

type Cluster.Node.event += Delivered of { segment : int; record : record }

(* Subscribers see the instant a record becomes visible to user code
   (waiter resumed, signal upcall, or queue pop) — that is the
   happens-before edge notification induces. *)
let observed t record =
  if Cluster.Node.observed t.node then
    Cluster.Node.emit t.node (Delivered { segment = t.segment; record })

let kind_to_string = function
  | Write_arrived -> "write"
  | Read_served -> "read"
  | Cas_applied -> "cas"

(* Delivery runs as its own kernel activity on the destination node:
   it charges the notification cost to "control transfer" and only then
   lets user level see the record. *)
let deliver t ctx record =
  let span =
    Obs.Trace.ctx_span_begin ctx ~node:(Atm.Addr.to_int (Cluster.Node.addr t.node))
  in
  Cluster.Cpu.use
    (Cluster.Node.cpu t.node)
    ~category:Cluster.Cpu.cat_control_transfer
    (Cluster.Node.costs t.node).Cluster.Costs.notification;
  Obs.Trace.span_end_opt span;
  if not (Sim.Proc.is_empty t.waiters) then begin
    observed t record;
    Sim.Proc.wake t.waiters record
  end
  else
    match t.signal_handler with
    | Some handler ->
        observed t record;
        handler record
    | None -> Queue.push record t.queue

let create ?(name = "fd") ?(segment = 0) node =
  let deliveries =
    Sim.Pool.create (Cluster.Node.engine node) ~name:(name ^ " delivery")
  in
  let rec t =
    {
      node;
      segment;
      deliveries;
      deliver = (fun ctx record -> deliver t ctx record);
      queue = Queue.create ();
      waiters = Sim.Proc.sleepers ();
      label = Sim.Engine.Quoted ("notification", name);
      signal_handler = None;
      posted = 0;
    }
  in
  t

(* Each post is a delivery process of its own, a pooled one. *)
let post ?ctx t record =
  t.posted <- t.posted + 1;
  Sim.Pool.post t.deliveries t.deliver ctx record

let wait t =
  if not (Queue.is_empty t.queue) then begin
    let record = Queue.pop t.queue in
    observed t record;
    record
  end
  else
    Sim.Proc.sleep t.waiters ~resource:t.label ~daemon:false

let set_signal_handler t handler = t.signal_handler <- handler

let pending t = Queue.length t.queue
let posted t = t.posted
