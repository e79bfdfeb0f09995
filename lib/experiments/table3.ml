(* Table 3: name server performance as seen by a user.

   Two nodes, each with a name-service clerk.  Bootstrap imports (the
   other clerk's well-known registry/request/scratch segments) are
   warmed with dummy traffic first, so the measured rows reflect the
   steady-state costs the paper reports.  Every row must land within
   15% of the paper. *)

module T = Metrics.Table

let run () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  let rows =
    Cluster.Testbed.run testbed (fun () ->
        let c0 = Names.Clerk.create r0 in
        let c1 = Names.Clerk.create r1 in
        Names.Clerk.serve_lookup_requests c0;
        Names.Clerk.serve_lookup_requests c1;
        let space1 = Cluster.Node.new_address_space n1 in
        let time body =
          let t0 = Sim.Engine.now engine in
          let (_ : Rmem.Descriptor.t) = body () in
          Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0)
        in
        (* Warm the bootstrap paths. *)
        let (_ : Rmem.Segment.t) =
          Names.Api.export c1 ~space:space1 ~base:65536 ~len:64 ~name:"warm" ()
        in
        let hint = Cluster.Node.addr n1 in
        let (_ : Rmem.Descriptor.t) = Names.Api.import ~hint c0 "warm" in
        let (_ : Rmem.Descriptor.t) =
          Names.Api.import_with_control_transfer ~hint c0 "warm"
        in

        (* Export. *)
        let t0 = Sim.Engine.now engine in
        let segment =
          Names.Api.export c1 ~space:space1 ~base:0 ~len:4096
            ~rights:Rmem.Rights.all ~name:"bench" ()
        in
        let t_export =
          Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0)
        in
        (* Import, uncached then cached. *)
        let t_uncached = time (fun () -> Names.Api.import ~hint c0 "bench") in
        let t_cached = time (fun () -> Names.Api.import ~hint c0 "bench") in
        (* Lookup with control transfer / notification. *)
        let t_notify =
          time (fun () -> Names.Api.import_with_control_transfer ~hint c0 "bench")
        in
        (* Revoke. *)
        let t0 = Sim.Engine.now engine in
        Names.Api.revoke c1 segment;
        let t_revoke =
          Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0)
        in
        [
          ("Export (ADDNAME)", 665., t_export);
          ("Import (LOOKUP) cached", 196., t_cached);
          ("Import (LOOKUP) uncached", 264., t_uncached);
          ("Revoke (DELETENAME)", 307., t_revoke);
          ("LOOKUP with notification", 524., t_notify);
        ])
  in
  T.make ~title:"Table 3: Name Server Performance (us)"
    [
      T.label "Operation";
      T.number ~unit_:"us" "Paper" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Measured" (Fixed 0);
      T.number "Delta" (Delta 1);
    ]
    (List.map
       (fun (name, paper, measured) ->
         [
           T.text name;
           T.num paper;
           T.num ~paper ~band:[ Within 0.15 ] measured;
           T.num ((measured /. paper) -. 1.);
         ])
       rows)
