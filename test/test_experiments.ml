(* Reproduction assertions: the experiments must land inside tolerance
   bands of the paper's published numbers. These are the tests that
   pin the whole reproduction together. *)

let check_bool = Alcotest.(check bool)

let table2_within_band () =
  let rows = Experiments.Table2.run () in
  List.iter
    (fun (row : Experiments.Table2.row) ->
      if
        not
          (Rig.within ~tolerance:0.15 ~expected:row.Experiments.Table2.paper
             row.Experiments.Table2.measured)
      then
        Alcotest.failf "%s: measured %.1f vs paper %.1f"
          row.Experiments.Table2.name row.Experiments.Table2.measured
          row.Experiments.Table2.paper)
    rows

let table3_within_band () =
  let rows = Experiments.Table3.run () in
  List.iter
    (fun (row : Experiments.Table3.row) ->
      if
        not
          (Rig.within ~tolerance:0.15 ~expected:row.Experiments.Table3.paper
             row.Experiments.Table3.measured)
      then
        Alcotest.failf "%s: measured %.0f vs paper %.0f"
          row.Experiments.Table3.name row.Experiments.Table3.measured
          row.Experiments.Table3.paper)
    rows

let table1a_mix_matches () =
  let result = Experiments.Table1a.run () in
  List.iter
    (fun (row : Experiments.Table1a.row) ->
      if
        Float.abs
          (row.Experiments.Table1a.trace_pct -. row.Experiments.Table1a.paper_pct)
        > 1.0
      then
        Alcotest.failf "%s: %.1f%% vs paper %.1f%%" row.Experiments.Table1a.label
          row.Experiments.Table1a.trace_pct row.Experiments.Table1a.paper_pct)
    result.Experiments.Table1a.rows

let table1b_ratios () =
  let result = Experiments.Table1b.run () in
  let overall = result.Experiments.Table1b.total.Experiments.Table1b.ratio in
  check_bool "overall control/data near 0.14" true
    (overall > 0.10 && overall < 0.18);
  check_bool "write ratio near 0.01" true
    (Experiments.Table1b.write_ratio result < 0.02);
  let fraction = Experiments.Table1b.control_fraction result in
  check_bool "control ~12% of traffic" true (fraction > 0.09 && fraction < 0.16)

(* The fixture is expensive; share it across the figure assertions. *)
let fixture = lazy (Experiments.Fixture.create ())

let fig2_claims () =
  let rows = Experiments.Fig2.run ~fixture:(Lazy.force fixture) () in
  check_bool "12 operations" true (List.length rows = 12);
  check_bool "DX wins everywhere" true (Experiments.Fig2.dx_wins_everywhere rows);
  (* The benefit of separation shrinks as transfers grow. *)
  let ratio op =
    let row = List.find (fun (r : Experiments.Fig2.row) -> r.Experiments.Fig2.op = op) rows in
    row.Experiments.Fig2.hy_us /. row.Experiments.Fig2.dx_us
  in
  check_bool "gap narrows with size" true
    (ratio "GetAttribute" > 2. *. ratio "Readfile(8K)")

let fig3_claims () =
  let rows = Experiments.Fig3.run ~fixture:(Lazy.force fixture) () in
  (* DX never runs a service procedure or takes a notification. *)
  List.iter
    (fun (row : Experiments.Fig3.row) ->
      let dx = row.Experiments.Fig3.dx in
      if dx.Experiments.Fig3.procedure_us > 1. || dx.Experiments.Fig3.control_us > 1.
      then
        Alcotest.failf "%s: DX shows control/procedure time"
          row.Experiments.Fig3.op;
      let hy = row.Experiments.Fig3.hy in
      if hy.Experiments.Fig3.control_us < 200. then
        Alcotest.failf "%s: HY control transfer suspiciously low"
          row.Experiments.Fig3.op)
    rows;
  let ratio = Experiments.Fig3.average_load_ratio rows in
  check_bool "average DX/HY server load below 0.5" true (ratio < 0.5);
  check_bool "but not absurdly low" true (ratio > 0.1)

let headline_claim () =
  let result = Experiments.Headline.run ~fixture:(Lazy.force fixture) ~scale:40000 () in
  let reduction = Experiments.Headline.reduction result in
  check_bool "at least the paper's 50% reduction" true (reduction >= 0.5);
  check_bool "sane upper bound" true (reduction < 0.95)

let probe_crossover () =
  let result = Experiments.Probe_policy.run () in
  match result.Experiments.Probe_policy.crossover with
  | Some chain ->
      check_bool "single-digit crossover like the paper's ~7" true
        (chain >= 2 && chain <= 9)
  | None -> Alcotest.fail "expected a probing/control crossover"

let coherence_cas_cheaper () =
  let points = Experiments.Coherence_bench.run ~sharer_counts:[ 2 ] () in
  match points with
  | [ cas; rpc ] ->
      check_bool "CAS acquire faster" true
        (cas.Experiments.Coherence_bench.mean_acquire_us
        < rpc.Experiments.Coherence_bench.mean_acquire_us);
      check_bool "CAS imposes less server CPU" true
        (cas.Experiments.Coherence_bench.server_us_per_pair
        < rpc.Experiments.Coherence_bench.server_us_per_pair /. 2.)
  | _ -> Alcotest.fail "expected two points"

let scalability_dx_scales_better () =
  let points = Experiments.Scalability.run ~client_counts:[ 4 ] () in
  match points with
  | [ hy; dx ] ->
      check_bool "DX latency lower under load" true
        (dx.Experiments.Scalability.mean_latency_us
        < hy.Experiments.Scalability.mean_latency_us);
      check_bool "DX finishes sooner" true
        (dx.Experiments.Scalability.makespan_us
        < hy.Experiments.Scalability.makespan_us)
  | _ -> Alcotest.fail "expected two points"

let suite =
  [
    Alcotest.test_case "Table 2 within 15% of paper" `Slow table2_within_band;
    Alcotest.test_case "Table 3 within 15% of paper" `Slow table3_within_band;
    Alcotest.test_case "Table 1a mix within 1 point" `Slow table1a_mix_matches;
    Alcotest.test_case "Table 1b ratios in band" `Slow table1b_ratios;
    Alcotest.test_case "Figure 2 claims hold" `Slow fig2_claims;
    Alcotest.test_case "Figure 3 claims hold" `Slow fig3_claims;
    Alcotest.test_case "headline: >= 50% load reduction" `Slow headline_claim;
    Alcotest.test_case "probing/control crossover" `Slow probe_crossover;
    Alcotest.test_case "CAS coherence beats RPC" `Slow coherence_cas_cheaper;
    Alcotest.test_case "DX scales better with clients" `Slow scalability_dx_scales_better;
  ]
