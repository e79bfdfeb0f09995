(* Generic kernel-path helpers: syscall entry, thread dispatch. *)

let syscall node ~name body =
  let span =
    Obs.Trace.scoped_begin
      ~node:(Atm.Addr.to_int (Node.addr node))
      ~name ~cat:"syscall"
  in
  Cpu.use (Node.cpu node) ~category:Cpu.cat_emulation (Node.costs node).Costs.syscall;
  let result = body () in
  Obs.Trace.span_end_opt span;
  result
