(* rnet cluster — run your own file-service scenario.

     rnet cluster --clients 4 --scheme dx --ops 500

   A parameterized driver around the experiment fixture: choose client
   count, transfer scheme, operation count and seed; get client latency
   and the server's CPU breakdown.  The report's sanity bands (positive
   makespan and latency, the mean between min and max, utilization
   within [0,1]) exit 1 only under --ci. *)

open Cmdliner
module T = Metrics.Table

let scheme_conv =
  let parse = function
    | "dx" -> Ok Dfs.Clerk.Dx
    | "hy" | "hybrid" -> Ok Dfs.Clerk.Hybrid1
    | "rpc" -> Ok Dfs.Clerk.Rpc_baseline
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S (dx|hy|rpc)" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (String.lowercase_ascii (Dfs.Clerk.scheme_to_string s))
  in
  Arg.conv (parse, print)

let run ~clients ~scheme ~ops ~seed =
  let fixture = Experiments.Fixture.create ~clients ~seed () in
  let latencies = Metrics.Summary.create () in
  Experiments.Fixture.run fixture (fun () ->
      Experiments.Fixture.reset_accounting fixture;
      let t_start = Experiments.Fixture.now fixture in
      let finished = ref 0 in
      let all_done = Sim.Ivar.create () in
      for c = 0 to clients - 1 do
        let clerk = Experiments.Fixture.clerk fixture c in
        Dfs.Clerk.set_scheme clerk scheme;
        let prng = Sim.Prng.split fixture.Experiments.Fixture.prng in
        Cluster.Node.spawn (Dfs.Clerk.node clerk) (fun () ->
            let sample = Workload.Mix.sampler () in
            for _ = 1 to ops do
              let event =
                Workload.Trace.event_for fixture.Experiments.Fixture.tree prng
                  (sample prng)
              in
              let _, us =
                Experiments.Fixture.time fixture (fun () ->
                    Dfs.Clerk.remote_fetch clerk event.Workload.Trace.op)
              in
              Metrics.Summary.add latencies us
            done;
            incr finished;
            if !finished = clients then Sim.Ivar.fill all_done ())
      done;
      Sim.Ivar.read all_done;
      Sim.Proc.wait (Sim.Time.ms 10);
      let makespan =
        Sim.Time.diff (Experiments.Fixture.now fixture) t_start
      in
      let cpu = Experiments.Fixture.server_cpu fixture in
      let min = Metrics.Summary.min latencies in
      let max = Metrics.Summary.max latencies in
      T.make
        ~title:
          (Printf.sprintf "cluster: %s, %d clients x %d ops, seed %d"
             (Dfs.Clerk.scheme_to_string scheme)
             clients ops seed)
        ~notes:
          [
            T.fields
              [
                ("makespan_ms", T.num ~band:[ Gt 0. ] (Sim.Time.to_ms makespan));
                ( "latency_mean_us",
                  T.num ~band:[ Gt 0.; Ge min; Le max ]
                    (Metrics.Summary.mean latencies) );
                ("latency_min_us", T.num min);
                ("latency_max_us", T.num max);
                ( "server_cpu_ms",
                  T.num (Sim.Time.to_ms (Cluster.Cpu.busy_time cpu)) );
                ( "utilization",
                  T.num ~band:[ Ge 0.; Le 1. ]
                    (Cluster.Cpu.utilization cpu ~window:makespan) );
              ];
          ]
        [ T.label "Server CPU"; T.number ~unit_:"us" "us" (Fixed 0) ]
        (List.map
           (fun (category, us) -> [ T.text category; T.num us ])
           (Metrics.Account.to_list (Cluster.Cpu.account cpu))))

let main clients scheme ops seed (m : Cli.mode) =
  let name = String.lowercase_ascii (Dfs.Clerk.scheme_to_string scheme) in
  Cli.report ~gated:m.ci m ~tool:"clustersim" ~key:"workload" name (fun () ->
      run ~clients ~scheme ~ops ~seed)

let cmd =
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Client machines.")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Dfs.Clerk.Dx
      & info [ "scheme" ] ~docv:"dx|hy|rpc" ~doc:"Transfer scheme.")
  in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per client (Table 1a mix).")
  in
  Cli.cmd "cluster"
    ~doc:"Run a parameterized file-service scenario on the simulated cluster"
    ~ci:"Sanity-assert the run's statistics; exit 1 on violation."
    Term.(const main $ clients $ scheme $ ops $ Cli.seed 7)
