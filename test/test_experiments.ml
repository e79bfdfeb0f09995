(* Reproduction assertions: every experiment's report carries the
   paper's bands in its cells, and Metrics.Table.violations must find
   none broken.  Each case below also pins that its report still carries
   the band it names, so a band cannot silently drop out.  These are the
   tests that pin the whole reproduction together. *)

module T = Metrics.Table

let check_bool = Alcotest.(check bool)

(* Each experiment runs once; the band checks and the EXPERIMENTS.md
   check share the reports, and the dds report and its forced-miss case
   share one sweep. *)
let dds_points = lazy (Experiments.Dds_bench.sweep ())

let reports =
  List.map
    (fun (name, _, run) ->
      ( name,
        lazy
          (if name = "dds" then Experiments.Dds_bench.report (Lazy.force dds_points)
           else run ()) ))
    Experiments.Paper.all

let report name = Lazy.force (List.assoc name reports)

let in_band (r : T.t) =
  match T.violations r with
  | [] -> ()
  | vs -> Alcotest.fail (String.concat "\n" vs)

(* The cells of column [name], row by row. *)
let column (r : T.t) name =
  let rec index i = function
    | [] -> Alcotest.failf "no column %S" name
    | (c : T.column) :: rest -> if c.name = name then i else index (i + 1) rest
  in
  let i = index 0 r.columns in
  List.map (fun row -> List.nth row i) r.rows

(* The value cell named [name] among the notes. *)
let note (r : T.t) name =
  match
    List.find_map
      (function T.Val (c, cell) when c.T.name = name -> Some cell | _ -> None)
      (List.concat r.notes)
  with
  | Some cell -> cell
  | None -> Alcotest.failf "no note value %S" name

let texts row =
  List.filter_map (function { T.value = Text s; _ } -> Some s | _ -> None) row

let number (cell : T.cell) =
  match cell.value with Num v -> v | _ -> Alcotest.fail "not a number"

let has_band what band (cell : T.cell) =
  if cell.band <> band then Alcotest.failf "%s: band changed" what

(* Rows whose text cells include [key]. *)
let rows_with (r : T.t) key =
  List.filter (fun row -> List.mem key (texts row)) r.rows

let table2_within_band () =
  let r = report "table2" in
  check_bool "six rows" true (List.length r.rows = 6);
  List.iter (has_band "Table 2" [ Within 0.15 ]) (column r "Measured");
  in_band r

let table3_within_band () =
  let r = report "table3" in
  check_bool "five rows" true (List.length r.rows = 5);
  List.iter (has_band "Table 3" [ Within 0.15 ]) (column r "Measured");
  in_band r

let table1a_mix_matches () =
  let r = report "table1a" in
  List.iter (has_band "Table 1a" [ Near 1.0 ]) (column r "Trace %");
  in_band r

let table1b_ratios () =
  let r = report "table1b" in
  has_band "overall control/data near 0.14" [ Gt 0.10; Lt 0.18 ]
    (note r "overall control/data");
  has_band "write ratio near 0.01" [ Lt 0.02 ] (note r "write control/data");
  has_band "control ~12% of traffic" [ Gt 0.09; Lt 0.16 ]
    (note r "control fraction");
  in_band r

let fig2_claims () =
  let r = report "fig2" in
  check_bool "12 operations" true (List.length r.rows = 24);
  (* DX wins everywhere: every DX bar is bounded by its HY bar. *)
  let rec pairs = function
    | hy :: dx :: rest ->
        let latency row = List.nth row 2 in
        has_band "DX wins everywhere" [ Lt (number (latency hy)) ] (latency dx);
        pairs rest
    | _ -> ()
  in
  pairs r.rows;
  (* The benefit of separation shrinks as transfers grow. *)
  (match
     List.filter_map
       (function T.Val (c, cell) when c.T.name = "HY/DX" -> Some cell | _ -> None)
       (List.concat r.notes)
   with
  | [ small; large ] ->
      has_band "gap narrows with size" [ Gt (2. *. number large) ] small
  | _ -> Alcotest.fail "expected the two HY/DX ratios");
  in_band r

let fig3_claims () =
  let r = report "fig3" in
  (* DX never runs a service procedure or takes a notification. *)
  let control = column r "control transfer"
  and procedure = column r "procedure invocation" in
  List.iteri
    (fun i row ->
      match texts row with
      | [ _; "DX" ] ->
          has_band "DX shows no control transfer" [ Le 1. ] (List.nth control i);
          has_band "DX shows no procedure" [ Le 1. ] (List.nth procedure i)
      | _ ->
          has_band "HY control transfer not suspiciously low" [ Ge 200. ]
            (List.nth control i))
    r.rows;
  has_band "average DX/HY server load below 0.5, but not absurdly low"
    [ Gt 0.1; Lt 0.5 ] (note r "DX/HY server load");
  in_band r

let headline_claim () =
  let r = report "headline" in
  has_band "at least the paper's 50% reduction, sane upper bound"
    [ Ge 0.5; Lt 0.95 ] (note r "server load reduction");
  in_band r

let probe_crossover () =
  let r = report "probes" in
  let crossover = note r "crossover" in
  has_band "single-digit crossover like the paper's ~7" [ Ge 2.; Le 9. ]
    crossover;
  if crossover.value = Missing then
    Alcotest.fail "expected a probing/control crossover";
  in_band r

let coherence_cas_cheaper () =
  let r = report "coherence" in
  match (rows_with r "CAS tokens", rows_with r "RPC tokens") with
  | cas :: _, rpc :: _ ->
      has_band "CAS acquire faster"
        [ Lt (number (List.nth rpc 2)) ]
        (List.nth cas 2);
      has_band "CAS imposes less server CPU"
        [ Lt (number (List.nth rpc 3) /. 2.) ] (List.nth cas 3);
      check_bool "at 2 sharers" true (number (List.hd cas) = 2.);
      in_band r
  | _ -> Alcotest.fail "expected CAS and RPC rows"

let scalability_dx_scales_better () =
  let r = report "scale" in
  let at_4 scheme =
    List.find
      (fun row -> number (List.hd row) = 4. && List.mem scheme (texts row))
      r.rows
  in
  let hy = at_4 "HY" and dx = at_4 "DX" in
  let bounded what i =
    has_band what [ Lt (number (List.nth hy i)) ] (List.nth dx i)
  in
  bounded "DX latency lower under load" 2;
  bounded "DX finishes sooner" 3;
  in_band r

(* The ablations whose claims only their reports check. *)
let ablation_holds name () =
  let r = report name in
  let noted =
    List.map
      (List.filter_map (function T.Val (_, c) -> Some c | Lit _ -> None))
      r.notes
  in
  let banded =
    List.exists (fun (c : T.cell) -> c.band <> []) (List.concat (r.rows @ noted))
  in
  check_bool "carries a claim" true banded;
  in_band r

(* The crossover needs two structures or more: the report of a real
   sweep's points with two structures dropped names its crossover cell. *)
let dds_forced_miss () =
  let points =
    List.filter
      (fun (p : Experiments.Dds_bench.point) -> p.structure = "register")
      (Lazy.force dds_points)
  in
  let r = Experiments.Dds_bench.report points in
  has_band "crossover on two structures" [ Ge 2. ] (note r "structures crossed");
  match T.violations r with
  | [ v ] ->
      let prefix = Option.get r.title ^ ": note: structures crossed = 1 " in
      check_bool "names the crossover cell" true (String.starts_with ~prefix v)
  | vs -> Alcotest.failf "want one violation, got:\n%s" (String.concat "\n" vs)

(* Every report's JSON parses back to the same tree: same numbers, with
   the non-finite ones (which JSON cannot hold) as null. *)
let json_round_trips () =
  let rec finite = function
    | Metrics.Json.Number f when not (Float.is_finite f) -> Metrics.Json.Null
    | List l -> List (List.map finite l)
    | Obj fields -> Obj (List.map (fun (k, v) -> (k, finite v)) fields)
    | j -> j
  in
  List.iter
    (fun (name, _) ->
      let json = T.to_json (report name) in
      if Metrics.Json.parse (Metrics.Json.write json) <> Ok (finite json) then
        Alcotest.failf "%s: JSON does not round-trip" name)
    reports

(* EXPERIMENTS.md quotes each report verbatim: the first fenced block
   after the section heading that names `repro NAME`. *)
let experiments_md_quotes_reports () =
  let lines =
    In_channel.with_open_text "../EXPERIMENTS.md" In_channel.input_all
    |> String.split_on_char '\n'
  in
  let contains line sub =
    let n = String.length sub and m = String.length line in
    let rec at i = i + n <= m && (String.sub line i n = sub || at (i + 1)) in
    at 0
  in
  let rec after_heading name = function
    | [] -> Alcotest.failf "EXPERIMENTS.md has no section for `repro %s`" name
    | l :: rest
      when String.starts_with ~prefix:"## " l
           && contains l ("`repro " ^ name ^ "`") ->
        rest
    | _ :: rest -> after_heading name rest
  in
  let rec block = function
    | [] -> Alcotest.fail "unterminated block"
    | "```" :: _ -> []
    | l :: rest -> l :: block rest
  in
  let rec fenced = function
    | [] -> None
    | l :: rest when String.starts_with ~prefix:"```" l -> Some (block rest)
    | l :: _ when String.starts_with ~prefix:"## " l -> None
    | _ :: rest -> fenced rest
  in
  List.iter
    (fun (name, _) ->
      match fenced (after_heading name lines) with
      | None ->
          Alcotest.failf "EXPERIMENTS.md: `repro %s` quotes no report" name
      | Some quoted ->
          Alcotest.(check string)
            (Printf.sprintf "EXPERIMENTS.md quotes `repro %s`" name)
            (T.render (report name))
            (String.concat "\n" quoted ^ "\n"))
    reports

(* One fixture build: the store's blocks, the server's warmed pages and
   the testbed, each byte copied once on its way, and a sim clock that
   ends where the bootstrap round trips leave it.  A directory entry is
   added in O(1): appending each of [bench/wide]'s 300 entries to the
   end of a list cost 1.1 MB more (2,814,974 words in all). *)
let fixture_create_budget () =
  let clock = ref 0. in
  let words =
    Rig.words_per_op ~n:2 (fun () ->
        let f = Experiments.Fixture.create () in
        clock := Sim.Time.to_us (Experiments.Fixture.now f))
  in
  Alcotest.(check (float 0.0005)) "sim clock at the end, us" 204_498.896 !clock;
  Rig.within_budget "fixture create" ~words ~budget:2_939_367.

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
    Alcotest.test_case "DX scales better with clients" `Slow
      scalability_dx_scales_better;
  ]
  @ List.map
      (fun (name, claim) ->
        Alcotest.test_case (name ^ ": " ^ claim) `Slow (ablation_holds name))
      [
        ("blocksize", "control amortizes");
        ("security", "software slower than hardware");
        ("svm", "remote memory wins under false sharing");
        ("amsg", "RPC costs most");
        ("technology", "DX wins in both generations");
        ("burst", "one cell slowest, plateau at 4-8");
        ("pipeline", "pipelined issue beats synchronous");
        ("shard", "sharded p99 below one registry");
        ("dds", "crossover on two structures");
      ]
  @ [
      Alcotest.test_case "dds: one structure cannot cross" `Slow
        dds_forced_miss;
      Alcotest.test_case "report JSON round-trips" `Slow json_round_trips;
      Alcotest.test_case "EXPERIMENTS.md quotes every report" `Slow
        experiments_md_quotes_reports;
      Alcotest.test_case "fixture create allocation budget" `Quick
        fixture_create_budget;
    ]
