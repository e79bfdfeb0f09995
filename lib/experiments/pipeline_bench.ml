(* The PR5 pipeline bench: batched/windowed issue vs the synchronous
   path, swept over window x batch x payload on the Table-2 workload
   shapes.

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
   other. *)

type sample = {
  workload : string;
  mode : string;  (* "unbatched" | "pipelined" *)
  window : int;
  batch_bytes : int;
  payload : int;
  ops : int;
  p50_us : float;
  p95_us : float;
  throughput_mbps : float;
  traps_per_kb : float;
  notifies_per_op : float;
}

type result = sample list

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

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let rank = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(Stdlib.min (n - 1) (Stdlib.max 0 rank))
  end

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
    ops;
    p50_us = percentile latencies 0.50;
    p95_us = percentile latencies 0.95;
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

let run ?(ops = 64) ?(windows = [ 1; 2; 4; 8; 16 ])
    ?(batches = [ 4096; 8192; 32768; 65536 ]) ?(payloads = [ 512; 4096 ]) () =
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
        batches)
    payloads;
  add (read_stream ~mode:`Unbatched ~window:1 ~payload:4096 ~ops ());
  List.iter
    (fun window -> add (read_stream ~mode:`Pipelined ~window ~payload:4096 ~ops ()))
    windows;
  add
    (write_stream ~mode:`Unbatched ~window:1 ~batch_bytes:0 ~payload:4096 ~ops
       ~notify:true ());
  add
    (write_stream ~mode:`Pipelined ~window:8 ~batch_bytes:32768 ~payload:4096
       ~ops ~notify:true ());
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Regression checks: the PR's acceptance bar.                         *)

let find samples ~workload ~mode ~payload =
  List.filter
    (fun s ->
      String.equal s.workload workload
      && String.equal s.mode mode
      && s.payload = payload)
    samples

let best_throughput = function
  | [] -> 0.
  | samples -> List.fold_left (fun acc s -> Stdlib.max acc s.throughput_mbps) 0. samples

let table2_throughput_mbps = 35.4

let check samples =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (match find samples ~workload:"write_stream" ~mode:"unbatched" ~payload:4096 with
  | [] -> fail "no unbatched 4K write_stream sample"
  | base :: _ ->
      let lo = table2_throughput_mbps *. 0.9
      and hi = table2_throughput_mbps *. 1.1 in
      if base.throughput_mbps < lo || base.throughput_mbps > hi then
        fail
          "unbatched 4K write throughput %.1f Mb/s outside Table-2 band [%.1f, %.1f]"
          base.throughput_mbps lo hi;
      let piped =
        best_throughput
          (find samples ~workload:"write_stream" ~mode:"pipelined" ~payload:4096)
      in
      if piped < 1.5 *. base.throughput_mbps then
        fail
          "pipelined 4K write throughput %.1f Mb/s < 1.5x unbatched %.1f Mb/s"
          piped base.throughput_mbps);
  (match
     ( find samples ~workload:"doorbell" ~mode:"unbatched" ~payload:4096,
       find samples ~workload:"doorbell" ~mode:"pipelined" ~payload:4096 )
   with
  | base :: _, piped :: _ ->
      if base.notifies_per_op < 0.99 then
        fail "unbatched doorbell posted %.2f notifies/op, want 1.0"
          base.notifies_per_op;
      if piped.notifies_per_op >= base.notifies_per_op then
        fail "coalescing did not reduce notifications (%.2f >= %.2f per op)"
          piped.notifies_per_op base.notifies_per_op
  | _ -> fail "missing doorbell samples");
  (match
     ( find samples ~workload:"read_stream" ~mode:"unbatched" ~payload:4096,
       find samples ~workload:"read_stream" ~mode:"pipelined" ~payload:4096 )
   with
  | base :: _, piped ->
      if best_throughput piped <= base.throughput_mbps then
        fail "windowed reads no faster than serial (%.1f <= %.1f Mb/s)"
          (best_throughput piped) base.throughput_mbps
  | _ -> fail "missing read_stream samples");
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* JSON emission (hand-rolled; schema in DESIGN.md §12).               *)

let json_of_sample s =
  Printf.sprintf
    "    {\"workload\": \"%s\", \"mode\": \"%s\", \"window\": %d, \
     \"batch_bytes\": %d, \"payload\": %d, \"ops\": %d, \"p50_us\": %.3f, \
     \"p95_us\": %.3f, \"throughput_mbps\": %.3f, \"traps_per_kb\": %.4f, \
     \"notifies_per_op\": %.4f}"
    s.workload s.mode s.window s.batch_bytes s.payload s.ops s.p50_us s.p95_us
    s.throughput_mbps s.traps_per_kb s.notifies_per_op

let to_json samples =
  let failures = check samples in
  String.concat "\n"
    ([
       "{";
       "  \"bench\": \"pipeline\",";
       "  \"paper\": \"Separating Data and Control Transfer (ASPLOS 1994)\",";
       Printf.sprintf "  \"table2_reference_mbps\": %.1f," table2_throughput_mbps;
       Printf.sprintf "  \"checks_passed\": %b," (failures = []);
       Printf.sprintf "  \"failures\": [%s],"
         (String.concat ", "
            (List.map (fun f -> Printf.sprintf "\"%s\"" f) failures));
       "  \"samples\": [";
     ]
    @ [ String.concat ",\n" (List.map json_of_sample samples) ]
    @ [ "  ]"; "}"; "" ])

let json_valid text =
  match Metrics.Json.parse text with Ok _ -> true | Error _ -> false

(* ------------------------------------------------------------------ *)

let render samples =
  let module T = Metrics.Table in
  let right = T.label ~align:Right in
  let table =
    T.make ~title:"Pipeline bench: batched/windowed issue vs synchronous (PR5)"
      [
        T.label "Workload";
        T.label "Mode";
        right "Win";
        right "Batch";
        right "Payload";
        right "p50 us";
        right "p95 us";
        right "Mb/s";
        right "Traps/KB";
        right "Ntf/op";
      ]
      (List.map
         (fun s ->
           List.map T.text
             [
               s.workload;
               s.mode;
               string_of_int s.window;
               string_of_int s.batch_bytes;
               string_of_int s.payload;
               Printf.sprintf "%.1f" s.p50_us;
               Printf.sprintf "%.1f" s.p95_us;
               Printf.sprintf "%.1f" s.throughput_mbps;
               Printf.sprintf "%.2f" s.traps_per_kb;
               Printf.sprintf "%.2f" s.notifies_per_op;
             ])
         samples)
  in
  let failures = check samples in
  T.render table
  ^ (match failures with
    | [] -> "  checks: all passed\n"
    | fs ->
        String.concat "" (List.map (Printf.sprintf "  CHECK FAILED: %s\n") fs))
