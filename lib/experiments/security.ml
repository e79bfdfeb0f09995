(* Ablation E: the cost of security (§3.5).

   In untrusted environments every remote read and write must be
   encrypted.  The paper's position: software encryption of the
   emulated data path "will not provide adequate performance", but
   AN1-style hardware that transforms data as it streams through the
   controller keeps the model viable.  We run the Table-2 micro
   operations under no encryption, hardware encryption and software
   encryption: software must be slower than hardware, and hardware at
   least as slow as none. *)

module T = Metrics.Table

let measure crypto =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  Rmem.Remote_memory.set_crypto r0 crypto;
  Rmem.Remote_memory.set_crypto r1 crypto;
  let space0 = Cluster.Node.new_address_space n0 in
  let space1 = Cluster.Node.new_address_space n1 in
  Cluster.Testbed.run testbed (fun () ->
      let segment =
        Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len:65536
          ~rights:Rmem.Rights.all ~name:"secure" ()
      in
      let desc =
        Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:65536 in
      let now () = Sim.Engine.now engine in
      (* Write latency: issue to deposit. *)
      let arrival = Sim.Ivar.create () in
      let detach =
        Fixture.on_write_served r1 (fun _ ->
            ignore (Sim.Ivar.try_fill arrival (now ()) : bool))
      in
      let t0 = now () in
      Rmem.Remote_memory.write r0 desc ~off:0 (Bytes.make 40 'x');
      let write_us = Sim.Time.to_us (Sim.Time.diff (Sim.Ivar.read arrival) t0) in
      detach ();
      (* Read latency. *)
      let t0 = now () in
      Rmem.Remote_memory.read_wait r0 desc ~soff:0 ~count:40 ~dst:buf ~doff:0 ();
      let read_us = Sim.Time.to_us (Sim.Time.diff (now ()) t0) in
      (* Streamed block-write throughput (sender-limited). *)
      let blocks = 32 in
      let block = Bytes.make 4096 'y' in
      let t0 = now () in
      for i = 0 to blocks - 1 do
        Rmem.Remote_memory.write r0 desc ~off:(4096 * (i land 7)) block
      done;
      let elapsed = Sim.Time.to_us (Sim.Time.diff (now ()) t0) in
      let throughput_mbps = float_of_int (blocks * 4096 * 8) /. elapsed in
      (write_us, read_us, throughput_mbps))

let run () =
  let ((none_w, none_r, none_mbps) as none) = measure None in
  let ((an1_w, an1_r, an1_mbps) as an1) =
    measure (Some Rmem.Crypto.hardware_an1)
  in
  let des = measure (Some Rmem.Crypto.software_des) in
  let row mode ?(bands = [ []; []; [] ]) (write, read, mbps) =
    T.text mode :: List.map2 (fun band v -> T.num ~band v) bands [ write; read; mbps ]
  in
  T.make ~title:"Ablation E: the cost of link encryption (section 3.5)"
    [
      T.label "Mode";
      T.number ~unit_:"us" ~better:Lower "Write (us)" (Fixed 1);
      T.number ~unit_:"us" ~better:Lower "Read (us)" (Fixed 1);
      T.number ~unit_:"Mb/s" ~better:Higher "Throughput (Mb/s)" (Fixed 1);
    ]
    [
      row "no encryption" none;
      row "AN1 hardware" an1
        ~bands:[ [ Ge none_w ]; [ Ge none_r ]; [ Le none_mbps ] ];
      row "software DES" des ~bands:[ [ Gt an1_w ]; [ Gt an1_r ]; [ Lt an1_mbps ] ];
    ]
