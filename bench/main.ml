(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper and prints
   them next to the published numbers (the reproduction output proper).

   Part 2 runs Bechamel micro-benchmarks: one Test.make per table and
   figure (timing the regeneration of each), plus the hot primitives of
   the implementation, so wall-clock regressions in the simulator show
   up here. *)

open Bechamel
open Toolkit

(* ---------------- Part 1: the paper's tables and figures ---------- *)

let reproduce () =
  print_endline "================================================================";
  print_endline " Reproduction: Separating Data and Control Transfer (ASPLOS 94)";
  print_endline "================================================================";
  print_newline ();
  print_string (Experiments.Table1a.render (Experiments.Table1a.run ()));
  print_newline ();
  print_string (Experiments.Table1b.render (Experiments.Table1b.run ()));
  print_newline ();
  print_string (Experiments.Table2.render (Experiments.Table2.run ()));
  print_newline ();
  print_string (Experiments.Table3.render (Experiments.Table3.run ()));
  print_newline ();
  let fixture = Experiments.Fixture.create () in
  print_string (Experiments.Fig2.render (Experiments.Fig2.run ~fixture ()));
  print_newline ();
  print_string (Experiments.Fig3.render (Experiments.Fig3.run ~fixture ()));
  print_newline ();
  print_string
    (Experiments.Headline.render (Experiments.Headline.run ~fixture ()));
  print_newline ();
  print_string
    (Experiments.Blocksize.render (Experiments.Blocksize.run ~fixture ()));
  print_newline ();
  print_string
    (Experiments.Probe_policy.render (Experiments.Probe_policy.run ()));
  print_newline ();
  print_string
    (Experiments.Coherence_bench.render
       (Experiments.Coherence_bench.run ~sharer_counts:[ 2; 4 ] ()));
  print_newline ();
  print_string (Experiments.Security.render (Experiments.Security.run ()));
  print_newline ();
  print_string (Experiments.Svm_bench.render (Experiments.Svm_bench.run ()));
  print_newline ();
  print_string (Experiments.Amsg_bench.render (Experiments.Amsg_bench.run ()));
  print_newline ();
  print_string (Experiments.Technology.render (Experiments.Technology.run ()));
  print_newline ();
  print_string
    (Experiments.Scalability.render
       (Experiments.Scalability.run ~client_counts:[ 1; 4 ] ()));
  print_newline ()

(* ---------------- Part 2: Bechamel micro-benchmarks --------------- *)

let table_tests =
  (* One Test.make per table/figure: the cost of regenerating it. *)
  let fixture = lazy (Experiments.Fixture.create ()) in
  [
    Test.make ~name:"table1a" (Staged.stage (fun () -> Experiments.Table1a.run ()));
    Test.make ~name:"table1b" (Staged.stage (fun () -> Experiments.Table1b.run ()));
    Test.make ~name:"table2" (Staged.stage (fun () -> Experiments.Table2.run ()));
    Test.make ~name:"table3" (Staged.stage (fun () -> Experiments.Table3.run ()));
    Test.make ~name:"fig2"
      (Staged.stage (fun () -> Experiments.Fig2.run ~fixture:(Lazy.force fixture) ()));
    Test.make ~name:"fig3"
      (Staged.stage (fun () -> Experiments.Fig3.run ~fixture:(Lazy.force fixture) ()));
    Test.make ~name:"headline"
      (Staged.stage (fun () ->
           Experiments.Headline.run ~fixture:(Lazy.force fixture) ~scale:100000 ()));
  ]

let primitive_tests =
  let message =
    Rmem.Wire.Write
      {
        seg = 3;
        gen = Rmem.Generation.initial;
        off = 128;
        notify = false;
        swab = false;
        data = Rmem.Wire.view (Bytes.make 40 'x');
      }
  in
  let encoded = Rmem.Wire.encode message in
  let record =
    Names.Record.make ~name:"bench/segment" ~node:1 ~segment_id:7
      ~generation:Rmem.Generation.initial ~size:8192 ~rights:Rmem.Rights.all
  in
  let encoded_record = Names.Record.encode record in
  let space = Cluster.Address_space.create ~asid:1 () in
  let registry = Names.Registry.create ~space ~base:0 ~slots:256 in
  ignore (Names.Registry.insert registry record);
  let cache_space = Cluster.Address_space.create ~asid:2 () in
  let cache =
    Dfs.Slot_cache.create ~space:cache_space ~base:0
      { Dfs.Slot_cache.slots = 256; payload_bytes = 8192 }
  in
  let block = Bytes.make 8192 'b' in
  Dfs.Slot_cache.install cache ~key1:5 ~key2:9 block;
  let store = Dfs.File_store.create () in
  let fh =
    Dfs.File_store.create_file store ~dir:(Dfs.File_store.root store)
      ~name:"bench" ()
  in
  Dfs.File_store.write store fh ~off:0 (Bytes.make 65536 'f');
  let zipf = Workload.Zipf.create 10_000 in
  let prng = Sim.Prng.create 99 in
  [
    Test.make ~name:"wire encode (40B write)"
      (Staged.stage (fun () -> Rmem.Wire.encode message));
    Test.make ~name:"wire decode (40B write)"
      (Staged.stage (fun () -> Rmem.Wire.decode encoded));
    Test.make ~name:"record encode"
      (Staged.stage (fun () -> Names.Record.encode record));
    Test.make ~name:"record decode"
      (Staged.stage (fun () -> Names.Record.decode encoded_record));
    Test.make ~name:"registry lookup"
      (Staged.stage (fun () -> Names.Registry.lookup registry "bench/segment"));
    Test.make ~name:"slot cache install (8K)"
      (Staged.stage (fun () -> Dfs.Slot_cache.install cache ~key1:5 ~key2:9 block));
    Test.make ~name:"slot cache lookup (8K)"
      (Staged.stage (fun () -> Dfs.Slot_cache.lookup_local cache ~key1:5 ~key2:9));
    Test.make ~name:"file store read (8K)"
      (Staged.stage (fun () -> Dfs.File_store.read store fh ~off:8192 ~count:8192));
    Test.make ~name:"address space write (4K)"
      (Staged.stage (fun () ->
           Cluster.Address_space.write space ~addr:100000 (Bytes.make 4096 'w')));
    Test.make ~name:"zipf sample"
      (Staged.stage (fun () -> Workload.Zipf.sample zipf prng));
  ]

let run_bechamel tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"all" tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ nanoseconds ] ->
          Printf.printf "  %-40s %14.1f ns/run\n" name nanoseconds
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    (List.sort compare rows)

(* ---------------- Part 3: the PR5 pipeline bench ------------------ *)

(* Full sweep -> the committed BENCH_PR5.json artifact. *)
let emit_json path =
  let samples = Experiments.Pipeline_bench.run () in
  print_string (Experiments.Pipeline_bench.render samples);
  let json = Experiments.Pipeline_bench.to_json samples in
  if not (Experiments.Pipeline_bench.json_valid json) then begin
    prerr_endline "BENCH: emitted JSON failed self-validation";
    exit 1
  end;
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "wrote %s (%d samples)\n" path (List.length samples);
  match Experiments.Pipeline_bench.check samples with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "BENCH CHECK FAILED: %s\n") failures;
      exit 1

(* Smoke sweep for CI: a few seconds, same regression gates. *)
let ci () =
  let samples =
    Experiments.Pipeline_bench.run ~ops:32 ~windows:[ 1; 8 ]
      ~batches:[ 4096; 32768 ] ~payloads:[ 4096 ] ()
  in
  print_string (Experiments.Pipeline_bench.render samples);
  if not (Experiments.Pipeline_bench.json_valid
            (Experiments.Pipeline_bench.to_json samples))
  then begin
    prerr_endline "BENCH: emitted JSON failed self-validation";
    exit 1
  end;
  match Experiments.Pipeline_bench.check samples with
  | [] -> print_endline "bench checks: all passed"
  | failures ->
      List.iter (Printf.eprintf "BENCH CHECK FAILED: %s\n") failures;
      exit 1

(* ---------------- Part 4: the PR7 host-time baseline -------------- *)

(* Full run -> the committed BENCH_PR7.json artifact; with --ci a
   shorter stream, same bands, no file. *)
let host ~ci rest =
  let phases =
    if ci then Experiments.Host_bench.run ~ops:64 ()
    else Experiments.Host_bench.run ()
  in
  print_string (Experiments.Host_bench.render phases);
  let json = Experiments.Host_bench.to_json phases in
  if not (Experiments.Host_bench.json_valid json) then begin
    prerr_endline "BENCH: emitted host JSON failed self-validation";
    exit 1
  end;
  if not ci then begin
    let path = match rest with path :: _ -> path | [] -> "BENCH_PR7.json" in
    let oc = open_out path in
    output_string oc json;
    close_out oc;
    Printf.printf "wrote %s (%d phases)\n" path (List.length phases)
  end;
  match Experiments.Host_bench.check phases with
  | [] -> if ci then print_endline "host bench checks: all passed"
  | failures ->
      List.iter (Printf.eprintf "HOST BENCH CHECK FAILED: %s\n") failures;
      exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: rest ->
      emit_json (match rest with path :: _ -> path | [] -> "BENCH_PR5.json")
  | _ :: "--host" :: "--ci" :: _ -> host ~ci:true []
  | _ :: "--host" :: rest -> host ~ci:false rest
  | _ :: "--ci" :: _ -> ci ()
  | _ ->
      reproduce ();
      print_endline
        "================================================================";
      print_endline
        " Bechamel micro-benchmarks (wall clock of the implementation)";
      print_endline
        "================================================================";
      print_endline "per-table regeneration cost:";
      run_bechamel table_tests;
      print_endline "hot primitives:";
      run_bechamel primitive_tests
