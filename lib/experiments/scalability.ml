(* Ablation A: scalability with client count (the paper's §3 argument —
   lower server involvement per request supports more clients).

   N clients concurrently replay mixed operations; we report makespan,
   mean client-seen latency and server CPU utilization per scheme.  At
   every client count DX must show the lower latency and finish sooner. *)

module T = Metrics.Table

let ops_per_client = 150

let measure fixture scheme ~clients =
  Fixture.run fixture (fun () ->
      Fixture.reset_accounting fixture;
      let latencies = Metrics.Summary.create () in
      let done_count = ref 0 in
      let all_done = Sim.Ivar.create () in
      let t0 = Fixture.now fixture in
      for c = 0 to clients - 1 do
        let clerk = Fixture.clerk fixture c in
        Dfs.Clerk.set_scheme clerk scheme;
        let prng = Sim.Prng.split fixture.Fixture.prng in
        Cluster.Node.spawn (Dfs.Clerk.node clerk) (fun () ->
            let sample = Workload.Mix.sampler () in
            for _ = 1 to ops_per_client do
              let event =
                Workload.Trace.event_for fixture.Fixture.tree prng (sample prng)
              in
              let _, elapsed =
                Fixture.time fixture (fun () ->
                    Dfs.Clerk.remote_fetch clerk event.Workload.Trace.op)
              in
              Metrics.Summary.add latencies elapsed
            done;
            incr done_count;
            if !done_count = clients then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      let makespan = Sim.Time.diff (Fixture.now fixture) t0 in
      Sim.Proc.wait (Sim.Time.ms 10);
      let busy = Cluster.Cpu.busy_time (Fixture.server_cpu fixture) in
      ( Metrics.Summary.mean latencies,
        Sim.Time.to_us makespan /. 1000.,
        Sim.Time.to_us busy /. Sim.Time.to_us makespan ))

let run () =
  let row clients scheme ?(latency = []) ?(makespan = []) (mean, ms, util) =
    [
      T.num (float_of_int clients);
      T.text scheme;
      T.num ~band:latency mean;
      T.num ~band:makespan ms;
      T.num util;
    ]
  in
  T.make
    ~title:"Ablation A: scalability with client count (Table 1a mix, warm caches)"
    [
      T.number "Clients" (Fixed 0);
      T.label "Scheme";
      T.number ~unit_:"us" ~better:Lower "Mean latency (us)" (Fixed 0);
      T.number ~unit_:"ms" ~better:Lower "Makespan (ms)" (Fixed 1);
      T.number ~unit_:"ratio" "Server CPU util" (Fixed 2);
    ]
    (List.concat_map
       (fun clients ->
         let measure scheme =
           measure (Fixture.create ~clients ()) scheme ~clients
         in
         let dx = measure Dfs.Clerk.Dx in
         let ((hy_mean, hy_ms, _) as hy) = measure Dfs.Clerk.Hybrid1 in
         [
           row clients "HY" hy;
           row clients "DX" ~latency:[ Lt hy_mean ] ~makespan:[ Lt hy_ms ] dx;
         ])
       [ 1; 2; 4; 8 ])
