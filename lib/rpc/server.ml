(* The server side of RPC: reception into a request queue, a pool of
   service threads, and per-category CPU accounting matching Figure 3's
   decomposition (data reception / control transfer / procedure
   invocation / data reply).  Reception runs in the node's
   receive-dispatcher process (a process-level tag), not at interrupt
   level as remote memory and active messages are served: this baseline
   is the one user of that process.  Its CPU charge blocks the process,
   and the next frame waits. *)

type request = {
  src : Atm.Addr.t;
  xid : int;
  proc : int;
  args : bytes;
}

type t = { queue : request Sim.Mailbox.t }

let create transport ~prog ?(threads = 1)
    ~(handler : src:Atm.Addr.t -> proc:int -> Xdr.reader -> Xdr.t) () =
  let node = Transport.node transport in
  let c = Cluster.Node.costs node in
  let cpu = Cluster.Node.cpu node in
  let t =
    {
      queue = Sim.Mailbox.create ~name:(Printf.sprintf "rpc prog %d queue" prog) ~daemon:true ();
    }
  in
  Transport.register transport ~prog ~deliver:(fun ~src ~xid ~proc ~args ->
      (* In the dispatcher process: drain the frame and queue the request. *)
      Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_data_reception
        (Sim.Time.add c.Cluster.Costs.rx_interrupt
           (Cluster.Costs.frame_copy_cost c
              ~payload_bytes:
                (Bytes.length args + Transport.call_header_bytes)));
      Sim.Mailbox.send t.queue { src; xid; proc; args });
  for _ = 1 to threads do
    Cluster.Node.spawn node (fun () ->
        while true do
          let req = Sim.Mailbox.recv t.queue in
          (* Control transfer: schedule, dispatch and later resume. *)
          Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_control_transfer
            c.Cluster.Costs.context_switch;
          let reply = handler ~src:req.src ~proc:req.proc (Xdr.reader req.args) in
          Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_procedure
            c.Cluster.Costs.rpc_stub;
          Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_data_reply
            (Cluster.Costs.frame_copy_cost c
               ~payload_bytes:(Transport.reply_frame_bytes reply));
          Transport.send_reply transport ~dst:req.src ~xid:req.xid reply
        done)
  done;
  t
