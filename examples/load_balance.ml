(* Load balancing with hints (§3.4's no-synchronization example).

   Every workstation periodically publishes its run-queue length into a
   hint segment on every peer with plain remote writes — no locks, no
   acknowledgements, no control transfer.  A job spawner on node 0
   reads its (possibly slightly stale) local hint table and places each
   job on the least-loaded machine.  Hints being hints, staleness only
   costs placement quality, never correctness.

     dune exec examples/load_balance.exe *)

let printf = Printf.printf

let node_count = 5
let publish_period = Sim.Time.ms 2
let job_service_time = Sim.Time.ms 8
let jobs = 40

let hint_name addr = Printf.sprintf "hints:%d" (Atm.Addr.to_int addr)

type station = {
  node : Cluster.Node.t;
  rmem : Rmem.Remote_memory.t;
  names : Names.Clerk.t;
  space : Cluster.Address_space.t;
  mutable load : int;
  mutable hint_descriptors : Rmem.Descriptor.t array; (* indexed by peer *)
}

let () =
  let testbed = Cluster.Testbed.create ~nodes:node_count () in
  let engine = Cluster.Testbed.engine testbed in
  let rmems =
    Array.init node_count (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let completed = ref 0 in
  let placements = Array.make node_count 0 in
  Cluster.Testbed.run testbed (fun () ->
      let stations =
        Array.init node_count (fun i ->
            let node = Cluster.Testbed.node testbed i in
            let names = Names.Clerk.create rmems.(i) in
            Names.Clerk.serve_lookup_requests names;
            {
              node;
              rmem = rmems.(i);
              names;
              space = Cluster.Node.new_address_space node;
              load = 0;
              hint_descriptors = [||];
            })
      in
      (* Each station exports a hint table: one load word per peer. *)
      Array.iter
        (fun s ->
          ignore
            (Names.Api.export s.names ~space:s.space ~base:0
               ~len:(node_count * 4)
               ~rights:(Rmem.Rights.make ~read:true ~write:true ())
               ~name:(hint_name (Cluster.Node.addr s.node))
               ()
              : Rmem.Segment.t))
        stations;
      (* Everyone imports everyone's hint table. *)
      Array.iter
        (fun s ->
          s.hint_descriptors <-
            Array.map
              (fun (peer : station) ->
                Names.Api.import
                  ~hint:(Cluster.Node.addr peer.node)
                  s.names
                  (hint_name (Cluster.Node.addr peer.node)))
              stations)
        stations;
      (* Publisher daemon: push my load word into every peer's table.
         Pure one-way data transfer; nobody is interrupted. *)
      Array.iteri
        (fun i s ->
          Cluster.Node.spawn s.node (fun () ->
              let word = Bytes.create 4 in
              while !completed < jobs do
                Bytes.set_int32_le word 0 (Int32.of_int s.load);
                Array.iteri
                  (fun j desc ->
                    if j <> i then
                      Rmem.Remote_memory.write s.rmem desc ~off:(i * 4) word)
                  s.hint_descriptors;
                (* The local slot is plain local memory. *)
                Cluster.Address_space.write_word s.space ~addr:(i * 4) s.load;
                Sim.Proc.wait publish_period
              done))
        stations;
      (* Spawner on node 0: place each job on the least-loaded station
         according to the local hint table. *)
      let spawner = stations.(0) in
      for job = 1 to jobs do
        let best = ref 0 and best_load = ref max_int in
        for i = 0 to node_count - 1 do
          let hinted =
            Cluster.Address_space.read_word spawner.space ~addr:(i * 4)
          in
          if hinted < !best_load then begin
            best := i;
            best_load := hinted
          end
        done;
        let target = stations.(!best) in
        placements.(!best) <- placements.(!best) + 1;
        target.load <- target.load + 1;
        if job mod 10 = 0 then
          printf "[%7.2f ms] job %2d -> node%d (hinted load %d)\n"
            (Sim.Time.to_ms (Sim.Engine.now engine))
            job !best !best_load;
        Cluster.Node.spawn target.node (fun () ->
            Sim.Proc.wait job_service_time;
            target.load <- target.load - 1;
            incr completed);
        Sim.Proc.wait (Sim.Time.ms 1)
      done;
      (* Wait for the fleet to drain. *)
      while !completed < jobs do
        Sim.Proc.wait (Sim.Time.ms 1)
      done);
  printf "placements per node:";
  Array.iteri (fun i n -> printf " node%d=%d" i n) placements;
  printf "\nall %d jobs completed by %s; hints were never synchronized\n"
    jobs
    (Sim.Time.to_string (Sim.Engine.now engine))
