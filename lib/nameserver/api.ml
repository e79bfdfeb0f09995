(* The user-facing kernel interface to the name service.

   Each call mirrors the paper's structure exactly: the user makes a
   kernel call, which the kernel turns into a *local* RPC to the clerk
   on the same machine.  No cross-machine control transfer occurs on
   these paths (the clerk itself uses remote reads); the only exception
   is the explicit [import_with_control_transfer] variant. *)

let export clerk ~space ~base ~len ?(rights = Rmem.Rights.read_only) ?policy
    ~name () =
  let node = Clerk.node clerk in
  Cluster.Kernel.syscall node ~name:"export_segment" (fun () ->
      let segment =
        Rmem.Remote_memory.export (Clerk.rmem clerk) ~space ~base ~len ?policy
          ~rights ~name ()
      in
      let record =
        Record.make ~name
          ~node:(Atm.Addr.to_int (Cluster.Node.addr node))
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:len ~rights
      in
      Cluster.Lrpc.call node (fun () -> Clerk.add_name clerk record) ();
      segment)

let import_record clerk record ~name =
  let desc =
    Rmem.Remote_memory.import (Clerk.rmem clerk)
      ~remote:(Atm.Addr.of_int record.Record.node)
      ~segment_id:record.Record.segment_id
      ~generation:record.Record.generation ~size:record.Record.size
      ~rights:record.Record.rights ()
  in
  Clerk.register_descriptor clerk ~name desc;
  desc

let import ?force ?hint clerk name =
  let node = Clerk.node clerk in
  Cluster.Kernel.syscall node ~name:"import_segment" (fun () ->
      let record =
        Cluster.Lrpc.call node (fun () -> Clerk.lookup ?force ?hint clerk name) ()
      in
      import_record clerk record ~name)

let import_with_control_transfer ~hint clerk name =
  (* Force the clerk onto the control-transfer path for this one lookup:
     the Table 3 "LOOKUP with notification" row. *)
  let node = Clerk.node clerk in
  Cluster.Kernel.syscall node ~name:"import_segment" (fun () ->
      let record =
        Cluster.Lrpc.call node
          (fun () ->
            let saved = Clerk.probe_policy clerk in
            Clerk.set_probe_policy clerk Clerk.Control_immediately;
            Fun.protect
              ~finally:(fun () -> Clerk.set_probe_policy clerk saved)
              (fun () -> Clerk.lookup ~force:true ~hint clerk name))
          ()
      in
      import_record clerk record ~name)

(* A descriptor revalidator for recovery policies (§3.7): on a
   Stale_generation / Bad_segment failure, force a fresh lookup of the
   name and refresh the descriptor in place with the generation the
   exporter now advertises.  Returns whether another attempt is
   worthwhile: yes after a successful refresh, and also after a
   transient lookup failure (the probe itself timed out — the next
   attempt revalidates again); no when the name is gone or now names a
   different segment. *)
let revalidator ?hint clerk name desc =
  match Clerk.lookup ~force:true ?hint clerk name with
  | record ->
      if
        record.Record.node = Atm.Addr.to_int (Rmem.Descriptor.remote desc)
        && record.Record.segment_id = Rmem.Descriptor.segment_id desc
      then begin
        Rmem.Descriptor.refresh desc ~generation:record.Record.generation;
        true
      end
      else false
  | exception Clerk.Name_not_found _ -> false
  | exception (Rmem.Status.Timeout | Rmem.Status.Remote_error _) -> true

let revoke clerk segment =
  let node = Clerk.node clerk in
  Cluster.Kernel.syscall node ~name:"revoke_segment" (fun () ->
      Cluster.Lrpc.call node
        (fun () -> Clerk.delete_name clerk (Rmem.Segment.name segment))
        ();
      Rmem.Remote_memory.revoke (Clerk.rmem clerk) segment)
