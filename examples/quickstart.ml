(* Quickstart: the remote-memory model in one file.

   Two simulated workstations.  Node 1 exports a segment through the
   name service; node 0 imports it by name, writes into it remotely
   (with a notification), reads it back, and runs a compare-and-swap —
   every byte moving through the simulated ATM fabric with the paper's
   measured costs.

     dune exec examples/quickstart.exe *)

let printf = Printf.printf

let () =
  (* A two-node cluster: engine, 140 Mb/s ATM network, nodes. *)
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let engine = Cluster.Testbed.engine testbed in

  (* Install the remote-memory kernel emulation on both nodes. *)
  let rmem0 = Rmem.Remote_memory.attach node0 in
  let rmem1 = Rmem.Remote_memory.attach node1 in

  Cluster.Testbed.run testbed (fun () ->
      (* Name-service clerks boot first on every machine. *)
      let names0 = Names.Clerk.create rmem0 in
      let names1 = Names.Clerk.create rmem1 in
      Names.Clerk.serve_lookup_requests names0;
      Names.Clerk.serve_lookup_requests names1;

      (* Node 1: export 4 KB of a process' memory as "shared.buffer",
         notifying whenever a request asks for it. *)
      let space1 = Cluster.Node.new_address_space node1 in
      let segment =
        Names.Api.export names1 ~space:space1 ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"shared.buffer" ()
      in
      printf "node1 exported %S: segment id %d, generation %d\n"
        (Rmem.Segment.name segment) (Rmem.Segment.id segment)
        (Rmem.Generation.to_int (Rmem.Segment.generation segment));

      (* Node 1: block on the segment's notification descriptor, like a
         Unix process sleeping in read(2) on the fd. *)
      Cluster.Node.spawn node1 (fun () ->
          let record =
            Rmem.Notification.wait (Rmem.Segment.notification segment)
          in
          printf "[%6.1f us] node1 notified: %s of %d bytes at offset %d\n"
            (Sim.Time.to_us (Sim.Engine.now engine))
            (Rmem.Notification.kind_to_string record.Rmem.Notification.kind)
            record.Rmem.Notification.count record.Rmem.Notification.off);

      (* Node 0: import by name (LOOKUPNAME through the local clerk,
         remote read of node1's registry). *)
      let desc = Names.Api.import ~hint:(Cluster.Node.addr node1) names0 "shared.buffer" in
      printf "node0 imported it: %s\n"
        (Format.asprintf "%a" Rmem.Descriptor.pp desc);

      (* Remote WRITE with the notify bit: pure data transfer plus an
         explicitly requested control transfer. *)
      let message = Bytes.of_string "hello, remote memory" in
      Rmem.Remote_memory.write rmem0 desc ~off:0 ~notify:true message;
      printf "[%6.1f us] node0 wrote %d bytes (non-blocking)\n"
        (Sim.Time.to_us (Sim.Engine.now engine))
        (Bytes.length message);

      (* Remote READ it back into local memory. *)
      let space0 = Cluster.Node.new_address_space node0 in
      let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096 in
      Rmem.Remote_memory.read_wait rmem0 desc ~soff:0
        ~count:(Bytes.length message) ~dst:buf ~doff:0 ();
      let got =
        Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length message)
      in
      printf "[%6.1f us] node0 read back: %S\n"
        (Sim.Time.to_us (Sim.Engine.now engine))
        (Bytes.to_string got);

      (* Remote compare-and-swap: the model's synchronization primitive. *)
      let witness =
        Rmem.Remote_memory.cas_wait rmem0 desc ~doff:1024 ~old_value:0
          ~new_value:42 ()
      in
      printf "[%6.1f us] node0 CAS(0 -> 42): won=%b (witness %d)\n"
        (Sim.Time.to_us (Sim.Engine.now engine))
        (witness = 0) witness;
      let witness =
        Rmem.Remote_memory.cas_wait rmem0 desc ~doff:1024 ~old_value:0
          ~new_value:99 ()
      in
      printf "[%6.1f us] node0 CAS(0 -> 99): won=%b (witness %d)\n"
        (Sim.Time.to_us (Sim.Engine.now engine))
        (witness = 0) witness);
  printf "simulation ended at %s\n"
    (Sim.Time.to_string (Sim.Engine.now engine))
