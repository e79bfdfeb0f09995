(* Ablation I: the block-transfer burst size.

   Our emulation (like the paper's block-write variant) moves large
   transfers as bursts of cells per frame.  Small bursts interleave
   sender, wire and receiver more finely but pay more per-frame
   overhead; large bursts amortize the interrupt but serialize the
   pipeline.  This pins the burst_cells=8 choice in Cluster.Costs. *)

type row = {
  burst_cells : int;
  throughput_mbps : float;
  write_8k_latency_us : float;
}

type result = row list

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
  let throughput_mbps, write_8k_latency_us = Option.get !out in
  { burst_cells; throughput_mbps; write_8k_latency_us }

let run () = List.map measure [ 1; 2; 4; 8; 16; 32 ]

let render rows =
  let table =
    Metrics.Table.create
      ~title:"Ablation I: block-transfer burst size (design choice)"
      [
        ("Burst (cells)", Metrics.Table.Right);
        ("Throughput (Mb/s)", Metrics.Table.Right);
        ("8K write latency (us)", Metrics.Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          string_of_int r.burst_cells;
          Printf.sprintf "%.1f" r.throughput_mbps;
          Printf.sprintf "%.0f" r.write_8k_latency_us;
        ])
    rows;
  Metrics.Table.render table
