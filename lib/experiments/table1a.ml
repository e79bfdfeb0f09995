(* Table 1a: summary of NFS RPC activity.

   The paper instrumented its departmental server for several days; we
   generate a trace with the same operation mix (scaled down 1000x by
   default) over a synthetic namespace and report the same table,
   side by side with the paper's counts. *)

module T = Metrics.Table

let scale = 1000

(* Every row's share must land within one percentage point of the
   paper's. *)
let run () =
  let prng = Sim.Prng.create 11 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale tree prng in
  let counts = Workload.Trace.counts_by_label events in
  let total = Array.length events in
  let num_int n = T.num (float_of_int n) in
  T.make
    ~title:
      (Printf.sprintf "Table 1a: Summary of NFS RPC Activity (trace scaled 1/%d)"
         scale)
    [
      T.label "Activity";
      T.number ~unit_:"calls" "Paper calls" (Fixed 0);
      T.number ~unit_:"%" "Paper %" (Fixed 1);
      T.number ~unit_:"calls" "Trace calls" (Fixed 0);
      T.number ~unit_:"%" "Trace %" (Fixed 1);
    ]
    (List.map
       (fun (r : Workload.Mix.row) ->
         let calls =
           Option.value ~default:0 (List.assoc_opt r.Workload.Mix.label counts)
         in
         let paper = Workload.Mix.percentage r in
         [
           T.text r.Workload.Mix.label;
           num_int r.Workload.Mix.calls;
           T.num paper;
           num_int calls;
           T.num ~paper ~band:[ Near 1.0 ]
             (100. *. float_of_int calls /. float_of_int total);
         ])
       Workload.Mix.table_1a)
    ~total:
      [
        T.text "Total";
        num_int Workload.Mix.total_calls;
        T.num 100.;
        num_int total;
        T.num 100.;
      ]

(* ------------------------------------------------------------------ *)
(* Span-derived latency decomposition.

   One unloaded WRITE / READ / CAS between two nodes, measured twice:
   directly ([Engine.now] around the operation, with the server's
   served-write monitor timestamping the unacknowledged WRITE's deposit) and
   from the tracer's span tree.  The two must agree — each span total
   is banded within 1% of its direct timing — which pins the tracer to
   the cost model instead of letting the two drift apart. *)

let decompose () =
  let bytes = 1024 in
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let rmem0 = Rmem.Remote_memory.attach node0 in
  let rmem1 = Rmem.Remote_memory.attach node1 in
  let write_served = ref Sim.Time.zero in
  let (_detach : unit -> unit) =
    Fixture.on_write_served rmem1 (fun _ ->
        write_served := Sim.Engine.now engine)
  in
  let registry = Obs.Registry.create () in
  let trace = Obs.Trace.create ~registry engine in
  Obs.Trace.attach trace;
  let t_write = ref 0. and t_read = ref 0. and t_cas = ref 0. in
  Fun.protect ~finally:Obs.Trace.detach (fun () ->
      Cluster.Testbed.run testbed (fun () ->
          let space1 = Cluster.Node.new_address_space node1 in
          let seg =
            Rmem.Remote_memory.export rmem1 ~space:space1 ~base:0 ~len:8192
              ~rights:Rmem.Rights.all ~name:"decompose.bench" ()
          in
          let desc =
            Rmem.Remote_memory.import rmem0
              ~remote:(Cluster.Node.addr node1)
              ~segment_id:(Rmem.Segment.id seg)
              ~generation:(Rmem.Segment.generation seg)
              ~size:8192 ~rights:Rmem.Rights.all ()
          in
          let space0 = Cluster.Node.new_address_space node0 in
          let buf =
            Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:8192
          in
          let t0 = Sim.Engine.now engine in
          Rmem.Remote_memory.write rmem0 desc ~off:0 (Bytes.make bytes 'w');
          (* The READ queues behind the WRITE on the FIFO link, so its
             request is served after the deposit; the probe has fired by
             the time the reply returns. *)
          let t1 = Sim.Engine.now engine in
          Rmem.Remote_memory.read_wait rmem0 desc ~soff:0 ~count:bytes
            ~dst:buf ~doff:0 ();
          t_read := Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t1);
          t_write := Sim.Time.to_us (Sim.Time.diff !write_served t0);
          let t2 = Sim.Engine.now engine in
          let (_ : int) =
            Rmem.Remote_memory.cas_wait rmem0 desc ~doff:4096 ~old_value:0
              ~new_value:1 ()
          in
          t_cas := Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t2)));
  Obs.Trace.finalize trace;
  let root op =
    match
      List.filter
        (fun (s : Obs.Span.t) -> s.Obs.Span.name = op)
        (Obs.Trace.roots trace)
    with
    | [ s ] -> s
    | _ -> failwith ("Table1a.decompose: expected exactly one " ^ op ^ " root")
  in
  let row op direct =
    let s = root op in
    [
      T.text op;
      T.num direct;
      T.num ~paper:direct ~band:[ Within 0.01 ] (Obs.Span.duration_us s);
      T.text
        (String.concat ", "
           (List.map
              (fun (name, us) -> Printf.sprintf "%s %.2f" name us)
              (Obs.Trace.phase_totals trace s)));
    ]
  in
  T.make ~title:"Latency decomposition from spans (unloaded, 2 nodes)"
    ~notes:
      [
        T.fields
          [
            ( "valid",
              T.is (Flag true) (Flag (Obs.Trace.validate trace = Ok ())) );
          ];
      ]
    [
      T.label "Op";
      T.number ~unit_:"us" "Direct us" (Fixed 2);
      T.number ~unit_:"us" "Spans us" (Fixed 2);
      T.label "Phases";
    ]
    [ row "WRITE" !t_write; row "READ" !t_read; row "CAS" !t_cas ]
