(* Ablation I: the block-transfer burst size.

   Our emulation (like the paper's block-write variant) moves large
   transfers as bursts of cells per frame.  Small bursts interleave
   sender, wire and receiver more finely but pay more per-frame
   overhead; large bursts amortize the interrupt but serialize the
   pipeline.  This pins the burst_cells=8 choice in Cluster.Costs:
   one-cell bursts must give the lowest throughput, and the lowest 8K
   latency must fall at 4 or 8 cells. *)

module T = Metrics.Table

let blocks = 32

let measure burst_cells =
  let costs = { Cluster.Costs.default with Cluster.Costs.burst_cells } in
  let testbed = Cluster.Testbed.create ~costs ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  let space1 = Cluster.Node.new_address_space n1 in
  let out = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let segment =
        Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len:65536
          ~rights:Rmem.Rights.all ~name:"burst" ()
      in
      let desc =
        Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:65536 ~rights:Rmem.Rights.all ()
      in
      (* 8K write latency to first full deposit. *)
      let received = ref 0 in
      let done_8k = Sim.Ivar.create () in
      let detach =
        Fixture.on_write_served r1 (fun count ->
            received := !received + count;
            if !received >= 8192 then
              ignore (Sim.Ivar.try_fill done_8k (Sim.Engine.now engine) : bool))
      in
      let t0 = Sim.Engine.now engine in
      Rmem.Remote_memory.write r0 desc ~off:0 (Bytes.make 8192 'w');
      let latency =
        Sim.Time.to_us (Sim.Time.diff (Sim.Ivar.read done_8k) t0)
      in
      detach ();
      (* Streamed throughput to last deposit. *)
      let total = blocks * 4096 in
      received := 0;
      let done_all = Sim.Ivar.create () in
      let detach =
        Fixture.on_write_served r1 (fun count ->
            received := !received + count;
            if !received >= total then
              ignore (Sim.Ivar.try_fill done_all (Sim.Engine.now engine) : bool))
      in
      let t0 = Sim.Engine.now engine in
      let block = Bytes.make 4096 'y' in
      for i = 0 to blocks - 1 do
        Rmem.Remote_memory.write r0 desc ~off:(4096 * (i land 7)) block
      done;
      let throughput =
        float_of_int (total * 8)
        /. Sim.Time.to_us (Sim.Time.diff (Sim.Ivar.read done_all) t0)
      in
      detach ();
      out := Some (throughput, latency));
  Option.get !out

let run () =
  let points =
    List.map (fun cells -> (cells, measure cells)) [ 1; 2; 4; 8; 16; 32 ]
  in
  let one_cell = fst (List.assoc 1 points) in
  let plateau =
    Float.min (snd (List.assoc 4 points)) (snd (List.assoc 8 points))
  in
  T.make ~title:"Ablation I: block-transfer burst size (design choice)"
    [
      T.number ~unit_:"cells" "Burst (cells)" (Fixed 0);
      T.number ~unit_:"Mb/s" ~better:Higher "Throughput (Mb/s)" (Fixed 1);
      T.number ~unit_:"us" ~better:Lower "8K write latency (us)" (Fixed 0);
    ]
    (List.map
       (fun (cells, (mbps, latency)) ->
         [
           T.num (float_of_int cells);
           T.num ~band:(if cells = 1 then [] else [ Gt one_cell ]) mbps;
           T.num
             ~band:(if cells = 4 || cells = 8 then [] else [ Gt plateau ])
             latency;
         ])
       points)
