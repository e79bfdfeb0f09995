(* Ablation D: cache-coherence token management (§5.1) — acquire/release
   as remote compare-and-swap (no server control transfer) versus an
   RPC token service over the same table.  At every sharer count CAS
   must acquire faster and cost the server under half the RPC CPU. *)

module T = Metrics.Table

let pairs_per_sharer = 50

let measure ~sharers ~use_rpc =
  let nodes = sharers + 1 in
  let testbed = Cluster.Testbed.create ~nodes () in
  let server_node = Cluster.Testbed.node testbed 0 in
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let transports =
    Array.init nodes (fun i ->
        Rpckit.Transport.attach (Cluster.Testbed.node testbed i))
  in
  Cluster.Testbed.run testbed (fun () ->
      let names =
        Array.init nodes (fun i -> Names.Clerk.create rmems.(i))
      in
      Array.iter Names.Clerk.serve_lookup_requests names;
      let manager = Dfs.Coherence.export_tokens ~names:names.(0) () in
      let (_ : Rpckit.Server.t) =
        Dfs.Coherence.start_rpc_manager manager transports.(0)
      in
      Rmem.Remote_memory.set_server_role rmems.(0);
      let clients =
        Array.init sharers (fun c ->
            Dfs.Coherence.connect
              ~names:names.(c + 1)
              ~server:(Cluster.Node.addr server_node)
              ())
      in
      Cluster.Cpu.reset_accounting (Cluster.Node.cpu server_node);
      let latencies = Metrics.Summary.create () in
      let engine = Cluster.Testbed.engine testbed in
      let finished = ref 0 in
      let all_done = Sim.Ivar.create () in
      Array.iteri
        (fun c client ->
          let node = Cluster.Testbed.node testbed (c + 1) in
          Cluster.Node.spawn node (fun () ->
              for pair = 1 to pairs_per_sharer do
                (* Everyone contends for a small set of hot tokens. *)
                let token = (c + pair) mod 4 in
                let t0 = Sim.Engine.now engine in
                (if use_rpc then
                   Dfs.Coherence.rpc_acquire transports.(c + 1)
                     ~server:(Cluster.Node.addr server_node) ~token
                 else Dfs.Coherence.acquire client ~token);
                Metrics.Summary.add latencies
                  (Sim.Time.to_us
                     (Sim.Time.diff (Sim.Engine.now engine) t0));
                (* Hold briefly, then release. *)
                Sim.Proc.wait (Sim.Time.us 20);
                if use_rpc then
                  Dfs.Coherence.rpc_release transports.(c + 1)
                    ~server:(Cluster.Node.addr server_node) ~token
                else Dfs.Coherence.release client ~token
              done;
              incr finished;
              if !finished = sharers then Sim.Ivar.fill all_done ()))
        clients;
      Sim.Ivar.read all_done;
      Sim.Proc.wait (Sim.Time.ms 5);
      let busy =
        Sim.Time.to_us (Cluster.Cpu.busy_time (Cluster.Node.cpu server_node))
      in
      let pairs = float_of_int (sharers * pairs_per_sharer) in
      (Metrics.Summary.mean latencies, busy /. pairs))

let run () =
  let row sharers scheme ?(acquire = []) ?(server = []) (mean, per_pair) =
    [
      T.num (float_of_int sharers);
      T.text scheme;
      T.num ~band:acquire mean;
      T.num ~band:server per_pair;
    ]
  in
  T.make ~title:"Ablation D: token coherence via CAS vs RPC"
    [
      T.number "Sharers" (Fixed 0);
      T.label "Scheme";
      T.number ~unit_:"us" ~better:Lower "Mean acquire (us)" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Server CPU / pair (us)" (Fixed 0);
    ]
    (List.concat_map
       (fun sharers ->
         let cas = measure ~sharers ~use_rpc:false in
         let ((rpc_mean, rpc_per_pair) as rpc) = measure ~sharers ~use_rpc:true in
         [
           row sharers "CAS tokens" ~acquire:[ Lt rpc_mean ]
             ~server:[ Lt (rpc_per_pair /. 2.) ]
             cas;
           row sharers "RPC tokens" rpc;
         ])
       [ 2; 4; 8 ])
