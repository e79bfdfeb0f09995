(* The client side of the data-transfer plane: one imported descriptor
   plus a local scratch buffer, with every meta-instruction optionally
   run under a §3.7 recovery policy.  The DX and hybrid structurings
   build their fast paths from these.  Words are read out of the
   scratch buffer as ints, so a probe allocates no bytes and no boxed
   word. *)

type t = {
  rmem : Rmem.Remote_memory.t;
  node : Cluster.Node.t;
  desc : Rmem.Descriptor.t;
  space : Cluster.Address_space.t;
  buf : Rmem.Remote_memory.buffer;
  policy : Rmem.Recovery.policy option;
}

let connect rmem ?policy ~remote ~segment_id ~generation ~size ~scratch () =
  let node = Rmem.Remote_memory.node rmem in
  let desc =
    Rmem.Remote_memory.import rmem ~remote ~segment_id ~generation ~size
      ~rights:Rmem.Rights.all ()
  in
  let space = Cluster.Node.new_address_space node in
  let buf = Rmem.Remote_memory.buffer ~space ~base:0 ~len:scratch in
  { rmem; node; desc; space; buf; policy }

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

(* Each client operation is bracketed on its node's stream, built only
   while someone subscribes. *)
type op = Read of int | Write of int | Sync

type Cluster.Node.event +=
  | Begin
  | Commit of { home : int; seg : int; gen : int; word : int; op : op }

let begin_op node = Cluster.Node.emit node Begin

let commit_op node ~cell:(home, seg, gen) ~word op =
  Cluster.Node.emit node (Commit { home; seg; gen; word; op })

let commit node ~cell ~word ~read v =
  if Cluster.Node.observed node then
    commit_op node ~cell ~word (if read then Read v else Write v)

let sync node ~cell =
  if Cluster.Node.observed node then commit_op node ~cell ~word:0 Sync
