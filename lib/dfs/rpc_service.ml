(* The RPC-baseline file service: the same operations as {!Server}, but
   reached through the classic RPC stack — the structure the paper's
   Table 1 systems use. *)

let start transport ~store () =
  let node = Rpckit.Transport.node transport in
  let costs = Cluster.Node.costs node in
  let cpu = Cluster.Node.cpu node in
  let handler ~src:_ ~proc reader =
    let op = Rpc_codec.unmarshal_op ~proc reader in
    Cluster.Cpu.use cpu ~category:Cluster.Cpu.cat_procedure
      (Nfs_ops.procedure_cost costs op);
    Rpc_codec.marshal_result (Server.execute store op)
  in
  ignore
    (Rpckit.Server.create transport ~prog:Rpc_codec.prog ~threads:2 ~handler ()
      : Rpckit.Server.t)
