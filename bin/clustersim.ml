(* rnet cluster — run your own file-service scenario.

     rnet cluster --clients 4 --scheme dx --ops 500

   A parameterized driver around the experiment fixture: choose client
   count, transfer scheme, operation count and seed; get client latency
   and the server's CPU breakdown.  --json emits the same numbers as a
   self-validated object; --ci sanity-asserts them (positive latency,
   utilization within [0,1]) and exits 1 on violation. *)

open Cmdliner
module J = Analysis.Report.Json

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

type stats = {
  makespan_ms : float;
  latency_mean_us : float;
  latency_min_us : float;
  latency_max_us : float;
  server_cpu_ms : float;
  utilization : float;
  breakdown : (string * float) list;
}

let report ~clients ~scheme ~ops ~seed (m : Cli.mode) s =
  if m.json then
    Analysis.Report.emit ~tool:"clustersim"
      (J.to_string
         (J.obj
            [
              ("schema", J.int Analysis.Report.schema_version);
              ("tool", J.str "clustersim");
              ( "scheme",
                J.str
                  (String.lowercase_ascii (Dfs.Clerk.scheme_to_string scheme))
              );
              ("clients", J.int clients);
              ("ops_per_client", J.int ops);
              ("seed", J.int seed);
              ("makespan_ms", J.raw (Printf.sprintf "%.1f" s.makespan_ms));
              ( "latency_mean_us",
                J.raw (Printf.sprintf "%.0f" s.latency_mean_us) );
              ("latency_min_us", J.raw (Printf.sprintf "%.0f" s.latency_min_us));
              ("latency_max_us", J.raw (Printf.sprintf "%.0f" s.latency_max_us));
              ("server_cpu_ms", J.raw (Printf.sprintf "%.1f" s.server_cpu_ms));
              ("utilization", J.raw (Printf.sprintf "%.3f" s.utilization));
              ( "breakdown",
                J.list
                  (List.map
                     (fun (category, us) ->
                       J.obj
                         [
                           ("category", J.str category);
                           ("us", J.raw (Printf.sprintf "%.0f" us));
                         ])
                     s.breakdown) );
            ]))
  else begin
    Printf.printf "scheme      : %s\n" (Dfs.Clerk.scheme_to_string scheme);
    Printf.printf "clients     : %d x %d ops\n" clients ops;
    Printf.printf "makespan    : %.1f ms of cluster time\n" s.makespan_ms;
    Printf.printf "latency     : mean %.0f us, min %.0f, max %.0f\n"
      s.latency_mean_us s.latency_min_us s.latency_max_us;
    Printf.printf "server CPU  : %.1f ms (utilization %.2f)\n" s.server_cpu_ms
      s.utilization;
    List.iter
      (fun (category, us) -> Printf.printf "  %-22s %10.0f us\n" category us)
      s.breakdown
  end;
  (not m.ci)
  ||
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "clustersim: %s\n" msg;
        false)
      fmt
  in
  if s.makespan_ms <= 0. then fail "non-positive makespan %.1f ms" s.makespan_ms
  else if s.latency_mean_us <= 0. then
    fail "non-positive mean latency %.0f us" s.latency_mean_us
  else if
    s.latency_min_us > s.latency_mean_us || s.latency_mean_us > s.latency_max_us
  then
    fail "latency order violated: min %.0f, mean %.0f, max %.0f"
      s.latency_min_us s.latency_mean_us s.latency_max_us
  else if s.utilization < 0. || s.utilization > 1. then
    fail "utilization %.3f outside [0,1]" s.utilization
  else begin
    Printf.eprintf "clustersim: ok (%d clients, %s, mean %.0f us)\n" clients
      (String.lowercase_ascii (Dfs.Clerk.scheme_to_string scheme))
      s.latency_mean_us;
    true
  end

let run clients scheme ops seed (m : Cli.mode) =
  let fixture = Experiments.Fixture.create ~clients ~seed () in
  let latencies = Metrics.Summary.create () in
  let stats = ref None in
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
      stats :=
        Some
          {
            makespan_ms = Sim.Time.to_ms makespan;
            latency_mean_us = Metrics.Summary.mean latencies;
            latency_min_us = Metrics.Summary.min latencies;
            latency_max_us = Metrics.Summary.max latencies;
            server_cpu_ms = Sim.Time.to_ms (Cluster.Cpu.busy_time cpu);
            utilization = Cluster.Cpu.utilization cpu ~window:makespan;
            breakdown = Metrics.Account.to_list (Cluster.Cpu.account cpu);
          });
  match !stats with
  | None ->
      Printf.eprintf "clustersim: simulation ended without producing stats\n";
      false
  | Some s -> report ~clients ~scheme ~ops ~seed m s

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
    Term.(const run $ clients $ scheme $ ops $ Cli.seed 7)
