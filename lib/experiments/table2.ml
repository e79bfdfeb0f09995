(* Table 2: performance of the remote memory operations.

   Two nodes back to back (the paper's switchless testbed).  Latencies
   are one-way (write) or round-trip (read, CAS) times for single-cell
   operations; throughput streams 4 KB block writes; the notification
   row is the extra time before a blocked destination process runs.
   Every row must land within 15% of the paper. *)

module T = Metrics.Table

let blocks_for_throughput = 64

let run () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  let space0 = Cluster.Node.new_address_space n0 in
  let space1 = Cluster.Node.new_address_space n1 in
  let rows =
    Cluster.Testbed.run testbed (fun () ->
        let segment =
          Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len:(1 lsl 20)
            ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
            ~name:"bench" ()
        in
        let desc =
          Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
            ~segment_id:(Rmem.Segment.id segment)
            ~generation:(Rmem.Segment.generation segment)
            ~size:(1 lsl 20) ~rights:Rmem.Rights.all ()
        in
        let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:65536 in
        let now () = Sim.Engine.now engine in

        (* Write latency: issue to deposit. *)
        let arrival = Sim.Ivar.create () in
        let detach =
          Fixture.on_write_served r1 (fun _ ->
              Sim.Ivar.try_fill arrival (now ()) |> ignore)
        in
        let t0 = now () in
        Rmem.Remote_memory.write r0 desc ~off:0 (Bytes.make 40 'x');
        let write_latency =
          Sim.Time.to_us (Sim.Time.diff (Sim.Ivar.read arrival) t0)
        in
        detach ();

        (* Read latency: one-cell round trip. *)
        let t0 = now () in
        Rmem.Remote_memory.read_wait r0 desc ~soff:0 ~count:40 ~dst:buf ~doff:0 ();
        let read_latency = Sim.Time.to_us (Sim.Time.diff (now ()) t0) in

        (* CAS latency. *)
        let t0 = now () in
        let (_ : int) =
          Rmem.Remote_memory.cas_wait r0 desc ~doff:128 ~old_value:0
            ~new_value:1 ()
        in
        let cas_latency = Sim.Time.to_us (Sim.Time.diff (now ()) t0) in

        (* Block-write throughput: stream 4 KB blocks, clock until the
           last byte has been deposited at the destination. *)
        let total_bytes = blocks_for_throughput * 4096 in
        let received = ref 0 in
        let done_ = Sim.Ivar.create () in
        let detach =
          Fixture.on_write_served r1 (fun count ->
              received := !received + count;
              if !received >= total_bytes then
                ignore (Sim.Ivar.try_fill done_ (now ()) : bool))
        in
        let t0 = now () in
        let block = Bytes.make 4096 'y' in
        for i = 0 to blocks_for_throughput - 1 do
          Rmem.Remote_memory.write r0 desc ~off:(4096 * (i land 15)) block
        done;
        let t_end = Sim.Ivar.read done_ in
        detach ();
        let throughput =
          float_of_int (total_bytes * 8) /. Sim.Time.to_us (Sim.Time.diff t_end t0)
        in

        (* Block-read throughput: the same blocks pulled back with
           pipelined (all outstanding at once) block reads. *)
        let t0 = now () in
        let completions =
          List.init 16 (fun i ->
              Rmem.Remote_memory.read r0 desc ~soff:(4096 * (i land 15))
                ~count:4096 ~dst:buf ~doff:((i land 15) * 4096) ())
        in
        List.iter
          (fun completion -> Rmem.Status.check (Rmem.Remote_memory.await completion))
          completions;
        let read_throughput =
          float_of_int (16 * 4096 * 8) /. Sim.Time.to_us (Sim.Time.diff (now ()) t0)
        in

        (* Notification overhead: write with notify to a blocked reader;
           the overhead is wakeup time minus plain delivery time. *)
        let fd = Rmem.Segment.notification segment in
        let woke = Sim.Ivar.create () in
        Cluster.Node.spawn n1 (fun () ->
            let (_ : Rmem.Notification.record) = Rmem.Notification.wait fd in
            Sim.Ivar.fill woke (now ()));
        Sim.Proc.yield ();
        let t0 = now () in
        Rmem.Remote_memory.write r0 desc ~off:0 ~notify:true (Bytes.make 40 'n');
        let t_wake = Sim.Ivar.read woke in
        let notification_overhead =
          Sim.Time.to_us (Sim.Time.diff t_wake t0) -. write_latency
        in

        [
          ("Read latency", 45., read_latency, "us");
          ("Write latency", 30., write_latency, "us");
          ("CAS latency", 38., cas_latency, "us");
          ("Throughput (4K block writes)", 35.4, throughput, "Mb/s");
          (* "the block read yields essentially identical performance" *)
          ("Throughput (4K block reads)", 35.4, read_throughput, "Mb/s");
          ("Notification overhead", 260., notification_overhead, "us");
        ])
  in
  T.make ~title:"Table 2: Performance Summary of Remote Memory Operations"
    [
      T.label "Operation";
      T.number "Paper" (Fixed 1);
      T.number "Measured" (Fixed 1);
      T.label "Unit";
      T.number "Delta" (Delta 1);
    ]
    (List.map
       (fun (name, paper, measured, unit_) ->
         [
           T.text name;
           T.num paper;
           T.num ~paper ~band:[ Within 0.15 ] measured;
           T.text unit_;
           T.num ((measured /. paper) -. 1.);
         ])
       rows)
