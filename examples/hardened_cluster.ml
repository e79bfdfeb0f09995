(* A hardened heterogeneous cluster: the §3 mechanisms working together.

   Three machines share a telemetry segment.  The link is encrypted
   with AN1-style hardware (§3.5); one machine has the opposite byte
   order and uses the swab bit on every access (§3.6); and everybody
   watches the publisher with heartbeat reads, detecting its crash by
   timeout (§3.7).

     dune exec examples/hardened_cluster.exe *)

let printf = Printf.printf

let () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let engine = Cluster.Testbed.engine testbed in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  (* Everyone shares the cluster key: the fabric carries only ciphertext. *)
  Array.iter
    (fun rmem -> Rmem.Remote_memory.set_crypto rmem (Some Rmem.Crypto.hardware_an1))
    rmems;
  Cluster.Testbed.run testbed (fun () ->
      let clerks = Array.map Names.Clerk.create rmems in
      Array.iter Names.Clerk.serve_lookup_requests clerks;
      let publisher = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space publisher in

      (* Node 0 publishes telemetry: [heartbeat ctr][16 metric words]. *)
      let segment =
        Names.Api.export clerks.(0) ~space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"telemetry" ()
      in
      let stop_publisher =
        Rmem.Heartbeat.publish rmems.(0) segment ~off:0 ~period:(Sim.Time.ms 1)
      in
      for i = 1 to 16 do
        Cluster.Address_space.write_word space ~addr:(i * 4) (i * 1000)
      done;

      (* Node 1 (same byte order) reads the metrics plainly. *)
      let d1 = Names.Api.import ~hint:(Cluster.Node.addr publisher) clerks.(1) "telemetry" in
      let space1 = Cluster.Node.new_address_space (Cluster.Testbed.node testbed 1) in
      let buf1 = Rmem.Remote_memory.buffer ~space:space1 ~base:0 ~len:128 in
      Rmem.Remote_memory.read_wait rmems.(1) d1 ~soff:4 ~count:64 ~dst:buf1
        ~doff:0 ();
      printf "node1 (little-endian) metric[3] = %d\n"
        (Cluster.Address_space.read_word space1 ~addr:8);

      (* Node 2 is "big-endian": it sets the swab bit so the kernel
         converts word order during the copy. *)
      let d2 = Names.Api.import ~hint:(Cluster.Node.addr publisher) clerks.(2) "telemetry" in
      let space2 = Cluster.Node.new_address_space (Cluster.Testbed.node testbed 2) in
      let buf2 = Rmem.Remote_memory.buffer ~space:space2 ~base:0 ~len:128 in
      Rmem.Remote_memory.read_wait rmems.(2) d2 ~soff:4 ~count:64 ~dst:buf2
        ~doff:0 ~swab:true ();
      let raw = Cluster.Address_space.read space2 ~addr:0 ~len:64 in
      let in_native = Rmem.Wire.swap_words raw in
      printf "node2 (big-endian)    metric[3] = %ld (after its own byte order)\n"
        (Bytes.get_int32_le in_native 8);

      (* An eavesdropper without the key sees only ciphertext. *)
      Rmem.Remote_memory.set_crypto rmems.(1) None;
      Rmem.Remote_memory.read_wait rmems.(1) d1 ~soff:4 ~count:16 ~dst:buf1
        ~doff:0 ();
      printf "without the key, node1 reads garbage: %d (was %d)\n"
        (Cluster.Address_space.read_word space1 ~addr:0)
        1000;
      Rmem.Remote_memory.set_crypto rmems.(1) (Some Rmem.Crypto.hardware_an1);

      (* Both consumers watch the publisher's heartbeat. *)
      let failures = ref [] in
      let watchers =
        List.map
          (fun i ->
            Rmem.Heartbeat.watch
              rmems.(i)
              (if i = 1 then d1 else d2)
              ~soff:0 ~period:(Sim.Time.ms 3) ~timeout:(Sim.Time.ms 2)
              ~strikes_allowed:2
              ~on_failure:(fun () ->
                failures := i :: !failures;
                printf "[%6.1f ms] node%d declares the publisher dead\n"
                  (Sim.Time.to_ms (Sim.Engine.now engine))
                  i)
              ())
          [ 1; 2 ]
      in
      Sim.Proc.wait (Sim.Time.ms 20);
      printf "[%6.1f ms] watchers healthy: %b %b\n"
        (Sim.Time.to_ms (Sim.Engine.now engine))
        (Rmem.Heartbeat.state (List.nth watchers 0) = Rmem.Heartbeat.Alive)
        (Rmem.Heartbeat.state (List.nth watchers 1) = Rmem.Heartbeat.Alive);

      (* Crash the publisher; both watchers must notice. *)
      Cluster.Node.set_down publisher true;
      printf "[%6.1f ms] publisher crashed\n"
        (Sim.Time.to_ms (Sim.Engine.now engine));
      Sim.Proc.wait (Sim.Time.ms 40);
      assert (List.sort compare !failures = [ 1; 2 ]);
      stop_publisher ();
      Cluster.Node.set_down publisher false);
  printf "done at %s\n" (Sim.Time.to_string (Sim.Engine.now engine))
