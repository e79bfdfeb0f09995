(* Campaign: the pipelined issue engine (batched, windowed) against the
   synchronous path, swept over window x batch x payload on the Table-2
   workload shapes.

   Three workloads, two nodes back to back (the paper's testbed):

   - write_stream: stream [ops] blocks to sequential offsets, clock
     each block from issue to deposit (the served-write monitor), and the
     stream from first issue to last deposit.  Batched mode stages the
     blocks and sends scatter-gather bursts.
   - read_stream: pull the blocks back; windowed mode keeps [window]
     READs in flight per round, the synchronous mode one.
   - doorbell: write_stream with a notify bit on every block — the
     coalescing policy turns [ops] notifications into one per flush.

   Every sample carries op latency (p50/p95), stream throughput, traps
   per KB (issue-side kernel crossings) and notifications per op — the
   four axes the paper's Table 2/4 discussion trades against each
   other.  The unbatched 4 KB write must stay in Table 2's band, the
   best pipelined write at 1.5x it or more, coalescing must cut the
   doorbell's notifications, and windowed reads must beat serial. *)

module T = Metrics.Table

type sample = {
  workload : string;
  mode : string;  (* "unbatched" | "pipelined" *)
  window : int;
  batch_bytes : int;
  payload : int;
  p50_us : float;
  p95_us : float;
  throughput_mbps : float;
  traps_per_kb : float;
  notifies_per_op : float;
}

(* The stream segment; [Workload.Programs.pipeline_*] declare it. *)
let segment_len = 1 lsl 20

(* Issue-side kernel crossings: one trap per meta-instruction frame
   handed to the adapter (a burst is one). *)
let traps rmem =
  let ops = Rmem.Remote_memory.ops rmem in
  List.fold_left
    (fun acc c -> acc +. Metrics.Account.total_of ops c)
    0.
    [ "write"; "write burst"; "read"; "cas"; "fence" ]

let finish ~workload ~mode ~window ~batch_bytes ~payload ~ops ~latencies
    ~elapsed_us ~traps ~notifies =
  Array.sort compare latencies;
  let total_bytes = ops * payload in
  {
    workload;
    mode;
    window;
    batch_bytes;
    payload;
    p50_us = Metrics.Summary.percentile latencies 0.50;
    p95_us = Metrics.Summary.percentile latencies 0.95;
    throughput_mbps =
      (if elapsed_us > 0. then float_of_int (total_bytes * 8) /. elapsed_us
       else 0.);
    traps_per_kb = traps /. (float_of_int total_bytes /. 1024.);
    notifies_per_op = notifies /. float_of_int ops;
  }

(* One fresh two-node testbed per measurement, so samples are
   independent and deterministic. [body] gets the issue-side rmem, the
   descriptor, the destination rmem and segment, and the engine clock. *)
let on_testbed body =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  let space0 = Cluster.Node.new_address_space n0 in
  let space1 = Cluster.Node.new_address_space n1 in
  let out = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let segment =
        Rmem.Remote_memory.export r1 ~space:space1 ~base:0 ~len:segment_len
          ~rights:Rmem.Rights.all ~policy:Rmem.Segment.Conditional
          ~name:"pipe.bench" ()
      in
      let desc =
        Rmem.Remote_memory.import r0 ~remote:(Cluster.Node.addr n1)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:segment_len ~rights:Rmem.Rights.all ()
      in
      let buf =
        Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:segment_len
      in
      out :=
        Some
          (body ~r0 ~r1 ~desc ~segment ~buf ~now:(fun () ->
               Sim.Engine.now engine)));
  Option.get !out

(* write_stream / doorbell: per-op deposit times recovered from the
   destination's served-write monitor by cumulative byte thresholds — with
   batching, one burst deposit retires several ops at once. *)
let write_stream ~mode ~window ~batch_bytes ~payload ~ops ~notify () =
  on_testbed (fun ~r0 ~r1 ~desc ~segment ~buf:_ ~now ->
      let workload = if notify then "doorbell" else "write_stream" in
      let total = ops * payload in
      let t_start = now () in
      let issue = Array.make ops t_start in
      let completed = Array.make ops t_start in
      let next = ref 0 in
      let received = ref 0 in
      let done_ = Sim.Ivar.create () in
      let detach =
        Fixture.on_write_served r1 (fun count ->
            received := !received + count;
            while !next < ops && !received >= (!next + 1) * payload do
              completed.(!next) <- now ();
              incr next
            done;
            if !received >= total then
              ignore (Sim.Ivar.try_fill done_ (now ()) : bool))
      in
      let traps0 = traps r0 in
      let fd = Rmem.Segment.notification segment in
      let notifies0 = float_of_int (Rmem.Notification.posted fd) in
      let block = Bytes.make payload 'y' in
      let t0 = now () in
      (match mode with
      | `Unbatched ->
          for i = 0 to ops - 1 do
            issue.(i) <- now ();
            Rmem.Remote_memory.write r0 desc ~off:(i * payload) ~notify block
          done
      | `Pipelined ->
          let p =
            Rmem.Pipeline.create
              ~config:
                (Rmem.Pipeline.pipelined_config ~window
                   ~max_batch_bytes:batch_bytes ())
              r0
          in
          for i = 0 to ops - 1 do
            issue.(i) <- now ();
            Rmem.Pipeline.write p desc ~off:(i * payload) ~notify block
          done;
          Rmem.Pipeline.flush p desc);
      let t_end = Sim.Ivar.read done_ in
      detach ();
      let latencies =
        Array.init ops (fun i ->
            Sim.Time.to_us (Sim.Time.diff completed.(i) issue.(i)))
      in
      finish ~workload
        ~mode:(match mode with `Unbatched -> "unbatched" | `Pipelined -> "pipelined")
        ~window ~batch_bytes ~payload ~ops ~latencies
        ~elapsed_us:(Sim.Time.to_us (Sim.Time.diff t_end t0))
        ~traps:(traps r0 -. traps0)
        ~notifies:(float_of_int (Rmem.Notification.posted fd) -. notifies0))

(* read_stream: the windowed mode issues [window] READs per round into
   distinct destination stripes and drains the round; a round's drain
   time is each member op's completion. *)
let read_stream ~mode ~window ~payload ~ops () =
  on_testbed (fun ~r0 ~r1:_ ~desc ~segment:_ ~buf ~now ->
      let t_start = now () in
      let issue = Array.make ops t_start in
      let completed = Array.make ops t_start in
      let traps0 = traps r0 in
      let t0 = now () in
      (match mode with
      | `Unbatched ->
          for i = 0 to ops - 1 do
            issue.(i) <- now ();
            Rmem.Remote_memory.read_wait r0 desc ~soff:(i * payload)
              ~count:payload ~dst:buf ~doff:(i * payload) ();
            completed.(i) <- now ()
          done
      | `Pipelined ->
          let p =
            Rmem.Pipeline.create
              ~config:(Rmem.Pipeline.pipelined_config ~window ())
              r0
          in
          let i = ref 0 in
          while !i < ops do
            let first = !i in
            let last = Stdlib.min (ops - 1) (first + window - 1) in
            for j = first to last do
              issue.(j) <- now ();
              Rmem.Pipeline.read_submit p desc ~soff:(j * payload)
                ~count:payload ~dst:buf ~doff:(j * payload) ()
            done;
            Rmem.Pipeline.drain p;
            let t = now () in
            for j = first to last do
              completed.(j) <- t
            done;
            i := last + 1
          done);
      let t_end = now () in
      let latencies =
        Array.init ops (fun i ->
            Sim.Time.to_us (Sim.Time.diff completed.(i) issue.(i)))
      in
      finish ~workload:"read_stream"
        ~mode:(match mode with `Unbatched -> "unbatched" | `Pipelined -> "pipelined")
        ~window ~batch_bytes:0 ~payload ~ops ~latencies
        ~elapsed_us:(Sim.Time.to_us (Sim.Time.diff t_end t0))
        ~traps:(traps r0 -. traps0)
        ~notifies:0.)

let ops = 64

let sweep () =
  let samples = ref [] in
  let add s = samples := s :: !samples in
  List.iter
    (fun payload ->
      add
        (write_stream ~mode:`Unbatched ~window:1 ~batch_bytes:0 ~payload ~ops
           ~notify:false ());
      List.iter
        (fun batch_bytes ->
          add
            (write_stream ~mode:`Pipelined ~window:8 ~batch_bytes ~payload
               ~ops ~notify:false ()))
        [ 4096; 8192; 32768; 65536 ])
    [ 512; 4096 ];
  add (read_stream ~mode:`Unbatched ~window:1 ~payload:4096 ~ops ());
  List.iter
    (fun window -> add (read_stream ~mode:`Pipelined ~window ~payload:4096 ~ops ()))
    [ 1; 2; 4; 8; 16 ];
  add
    (write_stream ~mode:`Unbatched ~window:1 ~batch_bytes:0 ~payload:4096 ~ops
       ~notify:true ());
  add
    (write_stream ~mode:`Pipelined ~window:8 ~batch_bytes:32768 ~payload:4096
       ~ops ~notify:true ());
  List.rev !samples

let table2_throughput_mbps = 35.4

let run () =
  let samples = sweep () in
  let find workload mode =
    List.filter
      (fun s -> s.workload = workload && s.mode = mode && s.payload = 4096)
      samples
  in
  let best = List.fold_left (fun acc s -> Float.max acc s.throughput_mbps) 0. in
  let write = List.hd (find "write_stream" "unbatched")
  and read = List.hd (find "read_stream" "unbatched")
  and bell = List.hd (find "doorbell" "unbatched") in
  let mbps = T.number ~unit_:"Mb/s" ~better:Higher "Mb/s" (Fixed 1) in
  let row s =
    let int v = T.num (float_of_int v) in
    let throughput =
      match (s.workload, s.mode, s.payload) with
      | "write_stream", "unbatched", 4096 ->
          T.num ~paper:table2_throughput_mbps ~band:[ Within 0.10 ]
            s.throughput_mbps
      | _ -> T.num s.throughput_mbps
    in
    let notifies =
      match (s.workload, s.mode) with
      | "doorbell", "unbatched" -> [ T.Ge 0.99 ]
      | "doorbell", _ -> [ Lt bell.notifies_per_op ]
      | _ -> []
    in
    [
      T.text s.workload;
      T.text s.mode;
      int s.window;
      int s.batch_bytes;
      int s.payload;
      T.num s.p50_us;
      T.num s.p95_us;
      throughput;
      T.num s.traps_per_kb;
      T.num ~band:notifies s.notifies_per_op;
    ]
  in
  let us = T.number ~unit_:"us" ~better:Lower in
  T.make ~title:"Pipeline bench: batched/windowed issue vs synchronous"
    [
      T.label "Workload";
      T.label "Mode";
      T.number "Win" (Fixed 0);
      T.number ~unit_:"B" "Batch" (Fixed 0);
      T.number ~unit_:"B" "Payload" (Fixed 0);
      us "p50 us" (Fixed 1);
      us "p95 us" (Fixed 1);
      mbps;
      T.number ~better:Lower "Traps/KB" (Fixed 2);
      T.number ~better:Lower "Ntf/op" (Fixed 2);
    ]
    (List.map row samples)
    ~notes:
      [
        [
          Lit "best pipelined 4 KB write: ";
          Val
            ( T.number ~unit_:"ratio" ~better:Higher "pipelined/unbatched"
                (Fixed 2),
              T.num ~band:[ Ge 1.5 ]
                (best (find "write_stream" "pipelined") /. write.throughput_mbps)
            );
          Lit "x unbatched";
        ];
        [
          Lit "best windowed 4 KB read: ";
          Val
            ( { mbps with name = "best windowed read" },
              T.num
                ~band:[ Gt read.throughput_mbps ]
                (best (find "read_stream" "pipelined")) );
          Lit " Mb/s (serial: ";
          Val ({ mbps with name = "serial read" }, T.num read.throughput_mbps);
          Lit " Mb/s)";
        ];
        [
          Val (T.number "ops per sample" (Fixed 0), T.num (float_of_int ops));
          Lit " ops per sample, each on a fresh two-node testbed";
        ];
      ]
