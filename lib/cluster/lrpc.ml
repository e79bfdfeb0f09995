(* Same-machine, cross-address-space procedure call.

   The paper's structure keeps control transfer local: clients talk to a
   server clerk on their own machine through a lightweight RPC in the
   style of LRPC [Bershad et al. 1990].  We model it as one CPU charge in
   each direction around the callee's execution. *)

type Node.event += Called

let call node f arg =
  Node.emit node Called;
  let span = Obs.Trace.lrpc_begin ~node:(Atm.Addr.to_int (Node.addr node)) in
  let half = (Node.costs node).Costs.lrpc_half in
  Cpu.use (Node.cpu node) ~category:Cpu.cat_client half;
  let result = f arg in
  Cpu.use (Node.cpu node) ~category:Cpu.cat_client half;
  Obs.Trace.span_end_opt span;
  result
