(* The skeleton every structure of the suite shares (see plane.mli).
   Words are read out of the scratch buffer as ints, so a probe
   allocates no bytes and no boxed word. *)

type home = {
  hnode : Cluster.Node.t;
  hspace : Cluster.Address_space.t;
  segment : Rmem.Segment.t;
}

let home rmem amsg ~name ~len ~id service =
  let hnode = Rmem.Remote_memory.node rmem in
  let hspace = Cluster.Node.new_address_space hnode in
  let segment =
    Rmem.Remote_memory.export rmem ~space:hspace ~base:0 ~len
      ~rights:Rmem.Rights.all ~name ()
  in
  let h = { hnode; hspace; segment } in
  Call.serve amsg ~id (service h);
  h

(* RPC service cost: stub overhead plus the operation's own.  A service
   returns it once it has mutated and written its reply, and [Amsg]
   charges it at interrupt level after the service returns, so serves
   cannot interleave. *)
let charge h extra =
  Sim.Time.add (Cluster.Node.costs h.hnode).Cluster.Costs.rpc_stub extra

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  desc : Rmem.Descriptor.t;
  space : Cluster.Address_space.t;
  buf : Rmem.Remote_memory.buffer;
  policy : Rmem.Recovery.policy option;
  cell : int * int * int;
}

let connect rmem ?policy h ~scratch =
  let node = Rmem.Remote_memory.node rmem in
  let desc =
    Rmem.Remote_memory.import rmem ~remote:(Cluster.Node.addr h.hnode)
      ~segment_id:(Rmem.Segment.id h.segment)
      ~generation:(Rmem.Segment.generation h.segment)
      ~size:(Rmem.Segment.length h.segment) ~rights:Rmem.Rights.all ()
  in
  let space = Cluster.Node.new_address_space node in
  let buf = Rmem.Remote_memory.buffer ~space ~base:0 ~len:scratch in
  let cell =
    ( Atm.Addr.to_int (Rmem.Descriptor.remote desc),
      Rmem.Descriptor.segment_id desc,
      Rmem.Generation.to_int (Rmem.Descriptor.generation desc) )
  in
  { rmem; node; desc; space; buf; policy; cell }

let read t ~soff ~len =
  Rmem.Remote_memory.read_wait ?policy:t.policy t.rmem t.desc ~soff ~count:len
    ~dst:t.buf ~doff:0 ()

let word t ~off = Cluster.Address_space.read_word t.space ~addr:off

let read_word t ~soff =
  read t ~soff ~len:4;
  word t ~off:0

let cas t ~doff ~old_value ~new_value =
  Rmem.Remote_memory.cas_wait ?policy:t.policy t.rmem t.desc ~doff ~old_value
    ~new_value ()

let write t ~off data =
  Rmem.Remote_memory.write ?policy:t.policy t.rmem t.desc ~off data

let fence t = Rmem.Remote_memory.fence ?policy:t.policy t.rmem t.desc

type client = {
  kind : Kind.t;
  plane : t;
  ep : Call.endpoint;
  request : bytes;
  reply : bytes;
  mutable cas_losses : int;
  mutable rpc_fallbacks : int;
}

(* Every reply of the suite is at most three words. *)
let client amsg ~kind ~request plane =
  {
    kind;
    plane;
    ep = Call.endpoint amsg;
    request = Bytes.create request;
    reply = Bytes.create 12;
    cas_losses = 0;
    rpc_fallbacks = 0;
  }

let call c p ~id =
  Call.call c.ep ~dst:(Rmem.Descriptor.remote p.desc) ~id c.request
    ~reply:c.reply

(* One phase, one rule.  [dx] and [rpc] are top-level functions and the
   phase's words travel as arguments, so running a phase allocates
   nothing of its own. *)

type rule = Dx_then_rpc | Dx_outright | Rpc_outright

let hybrid_budget = 2

let exhausted = -1
let contended = -2

let fall_back c rpc s a b =
  c.rpc_fallbacks <- c.rpc_fallbacks + 1;
  rpc s a b

let phase c rule ~dx ~rpc s a b =
  match (c.kind, rule) with
  | Kind.Dx, _ | Kind.Hybrid, Dx_outright -> dx s ~budget:max_int a b
  | Kind.Rpc, _ -> rpc s a b
  | Kind.Hybrid, Rpc_outright -> fall_back c rpc s a b
  | Kind.Hybrid, Dx_then_rpc ->
      let r = dx s ~budget:hybrid_budget a b in
      if r = contended then fall_back c rpc s a b else r

(* Each client operation is bracketed on its node's stream, built only
   while someone subscribes. *)
type op = Read of int | Write of int | Sync

type Cluster.Node.event +=
  | Begin
  | Commit of { home : int; seg : int; gen : int; word : int; op : op }

let op_begin c = Cluster.Node.emit c.plane.node Begin

let emit_commit c ~word op =
  let home, seg, gen = c.plane.cell in
  Cluster.Node.emit c.plane.node (Commit { home; seg; gen; word; op })

let op_commit c ~word ~read v =
  if Cluster.Node.observed c.plane.node then
    emit_commit c ~word (if read then Read v else Write v)

(* The fence's physical READ must not leak into a monitored history as
   an unscoped access, so a flush is bracketed like any other operation
   and commits as a [Sync] (constrains nothing). *)
let flush c =
  match c.kind with
  | Kind.Rpc -> ()
  | Kind.Dx | Kind.Hybrid ->
      op_begin c;
      fence c.plane;
      if Cluster.Node.observed c.plane.node then emit_commit c ~word:0 Sync
