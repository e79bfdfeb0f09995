(* Ablation F: shared virtual memory versus remote memory (§6).

   The paper's related-work argument against SVM: the unit of transfer
   is a page, so two unrelated records on one page false-share, and
   every fault needs control transfer at the faulting machine, the
   manager and the owner.  We place two 64-byte records on the same
   page; a writer updates record A while a reader polls record B.

   Under SVM every write invalidates the reader's page and every read
   faults 4 KB back through the manager.  Under remote memory the
   reader moves 64 bytes, unaffected by the writer.  A read-mostly
   scenario is included for honesty: once cached, SVM reads are local
   and effectively free, which is exactly the regime SVM was built for.
   Remote memory must read faster under false sharing, SVM when the
   page stays put. *)

module T = Metrics.Table

let iterations = 40
let record_a = 0
let record_b = 64
let record_bytes = 64

let wire_bytes testbed =
  List.fold_left
    (fun acc node -> acc + Atm.Nic.bytes_tx (Cluster.Node.nic node))
    0
    (Cluster.Testbed.nodes testbed)

let measure_svm ~false_sharing =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let engine = Cluster.Testbed.engine testbed in
  let transports =
    Array.init 3 (fun i ->
        Rpckit.Transport.attach (Cluster.Testbed.node testbed i))
  in
  let manager = Cluster.Node.addr (Cluster.Testbed.node testbed 0) in
  let out = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let agents =
        Array.map (fun tr -> Svm.attach tr ~manager ~pages:4) transports
      in
      let writer = agents.(1) and reader = agents.(2) in
      (* Warm both sides once. *)
      Svm.write writer ~addr:record_a (Bytes.make record_bytes 'w');
      ignore (Svm.read reader ~addr:record_b ~len:record_bytes);
      let base_bytes = wire_bytes testbed in
      let reads = Metrics.Summary.create () in
      for i = 1 to iterations do
        if false_sharing then
          Svm.write writer ~addr:record_a
            (Bytes.make record_bytes (Char.chr (i land 0xFF)));
        let t0 = Sim.Engine.now engine in
        ignore (Svm.read reader ~addr:record_b ~len:record_bytes);
        Metrics.Summary.add reads
          (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0))
      done;
      out :=
        Some
          ( Metrics.Summary.mean reads,
            float_of_int (wire_bytes testbed - base_bytes) /. 1024.,
            Svm.read_faults reader ));
  Option.get !out

let measure_rmem ~false_sharing =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let engine = Cluster.Testbed.engine testbed in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let out = ref None in
  Cluster.Testbed.run testbed (fun () ->
      let home = Cluster.Testbed.node testbed 0 in
      let space = Cluster.Node.new_address_space home in
      let segment =
        Rmem.Remote_memory.export rmems.(0) ~space ~base:0 ~len:Svm.page_bytes
          ~rights:Rmem.Rights.all ~name:"shared-page" ()
      in
      let import i =
        Rmem.Remote_memory.import rmems.(i) ~remote:(Cluster.Node.addr home)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:Svm.page_bytes ~rights:Rmem.Rights.all ()
      in
      let writer_desc = import 1 and reader_desc = import 2 in
      let reader_space =
        Cluster.Node.new_address_space (Cluster.Testbed.node testbed 2)
      in
      let buf =
        Rmem.Remote_memory.buffer ~space:reader_space ~base:0 ~len:4096
      in
      Rmem.Remote_memory.write rmems.(1) writer_desc ~off:record_a
        (Bytes.make record_bytes 'w');
      Rmem.Remote_memory.read_wait rmems.(2) reader_desc ~soff:record_b
        ~count:record_bytes ~dst:buf ~doff:0 ();
      let base_bytes = wire_bytes testbed in
      let reads = Metrics.Summary.create () in
      for i = 1 to iterations do
        if false_sharing then
          Rmem.Remote_memory.write rmems.(1) writer_desc ~off:record_a
            (Bytes.make record_bytes (Char.chr (i land 0xFF)));
        let t0 = Sim.Engine.now engine in
        Rmem.Remote_memory.read_wait rmems.(2) reader_desc ~soff:record_b
          ~count:record_bytes ~dst:buf ~doff:0 ();
        Metrics.Summary.add reads
          (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0))
      done;
      out :=
        Some
          ( Metrics.Summary.mean reads,
            float_of_int (wire_bytes testbed - base_bytes) /. 1024. ));
  let mean_read_us, wire_kb = Option.get !out in
  (mean_read_us, wire_kb, 0)

let run () =
  let row scenario scheme ?(band = []) (mean_read_us, wire_kb, faults) =
    [
      T.text scenario;
      T.text scheme;
      T.num ~band mean_read_us;
      T.num wire_kb;
      T.num (float_of_int faults);
    ]
  in
  let scenario name false_sharing =
    let ((svm_us, _, _) as svm) = measure_svm ~false_sharing in
    let ((rmem_us, _, _) as rmem) = measure_rmem ~false_sharing in
    (* Under false sharing remote memory wins; read-mostly, SVM does. *)
    let svm_band, rmem_band =
      if false_sharing then ([], [ T.Lt svm_us ]) else ([ T.Lt rmem_us ], [])
    in
    [
      row name "SVM (Ivy)" ~band:svm_band svm;
      row name "remote memory" ~band:rmem_band rmem;
    ]
  in
  T.make
    ~title:"Ablation F: SVM (page-grain, manager-based) vs remote memory (section 6)"
    [
      T.label "Scenario";
      T.label "Scheme";
      T.number ~unit_:"us" ~better:Lower "Mean read (us)" (Fixed 0);
      T.number ~unit_:"KB" ~better:Lower "Wire traffic (KB)" (Fixed 1);
      T.number ~unit_:"faults" ~better:Lower "Reader faults" (Fixed 0);
    ]
    (scenario "false sharing" true @ scenario "read-mostly" false)
