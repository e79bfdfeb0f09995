(* Tests for the workload generators. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let zipf_bounds =
  QCheck.Test.make ~name:"zipf samples stay in range" ~count:300
    QCheck.(pair (int_range 1 500) small_int)
    (fun (n, seed) ->
      let z = Workload.Zipf.create n in
      let prng = Sim.Prng.create seed in
      let v = Workload.Zipf.sample z prng in
      v >= 0 && v < n)

(* The guide table is exact: for every draw it answers what a binary
   search over the CDF answers, on every CDF value, on each side of it,
   on every bucket edge and on 100k random draws. *)
let zipf_guide_matches_search () =
  List.iter
    (fun (n, exponent) ->
      let z = Workload.Zipf.create ~exponent n in
      let cdf = Workload.Zipf.cdf z in
      let search u =
        let rec go lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if cdf.(mid) < u then go (mid + 1) hi else go lo mid
        in
        go 0 (n - 1)
      in
      let agree u =
        if u >= 0. && u < 1. && Workload.Zipf.index z u <> search u then
          Alcotest.failf "n = %d, exponent %g: u = %h: guide %d, search %d" n
            exponent u (Workload.Zipf.index z u) (search u)
      in
      Array.iter
        (fun c -> List.iter agree [ Float.pred c; c; Float.succ c ])
        cdf;
      for j = 0 to n do
        let edge = float_of_int j /. float_of_int n in
        List.iter agree [ Float.pred edge; edge; Float.succ edge ]
      done;
      agree 0.;
      agree (Float.pred 1.);
      let prng = Sim.Prng.create (n + int_of_float (exponent *. 100.)) in
      for _ = 1 to 100_000 do
        agree (Sim.Prng.float prng)
      done)
    [ (1, 1.05); (8, 1.05); (256, 1.05); (384, 1.05);
      (1, 1.5); (8, 1.5); (256, 1.5); (384, 1.5) ]

let zipf_skew () =
  let z = Workload.Zipf.create 100 in
  let prng = Sim.Prng.create 5 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20000 do
    let i = Workload.Zipf.sample z prng in
    counts.(i) <- counts.(i) + 1
  done;
  check_bool "rank 0 beats rank 50" true (counts.(0) > 5 * counts.(50));
  check_bool "all mass present" true
    (Array.fold_left ( + ) 0 counts = 20000)

let mix_sums_to_total () =
  check_int "total" 28_860_744 Workload.Mix.total_calls;
  let sum =
    List.fold_left (fun acc (r : Workload.Mix.row) -> acc +. Workload.Mix.percentage r)
      0. Workload.Mix.table_1a
  in
  check_bool "percentages sum to 100" true (Float.abs (sum -. 100.) < 1e-6)

let mix_sampler_matches () =
  let sample = Workload.Mix.sampler () in
  let prng = Sim.Prng.create 3 in
  let counts = Hashtbl.create 16 in
  let n = 50_000 in
  for _ = 1 to n do
    let label = sample prng in
    Hashtbl.replace counts label
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts label))
  done;
  (* GetAttr should be ~31%, Write ~0.4%. *)
  let pct label =
    100. *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts label))
    /. float_of_int n
  in
  check_bool "getattr share" true
    (Rig.within ~tolerance:0.1 ~expected:31.0 (pct "Get File Attribute"));
  check_bool "lookup share" true
    (Rig.within ~tolerance:0.1 ~expected:30.6 (pct "Lookup File Name"));
  check_bool "write share small" true (pct "Write File Data" < 1.0)

let tree_is_well_formed () =
  let prng = Sim.Prng.create 17 in
  let tree = Workload.File_tree.build prng in
  let store = Workload.File_tree.store tree in
  let kinds =
    List.map
      (fun (_, fh) -> (Dfs.File_store.getattr store fh).Dfs.File_store.kind)
      (List.concat_map
         (fun (_, dir) -> Dfs.File_store.readdir store dir)
         (Dfs.File_store.readdir store (Dfs.File_store.root store)))
  in
  let count kind = List.length (List.filter (( = ) kind) kinds) in
  check_int "files" (24 * 16) (count Dfs.File_store.Regular);
  check_int "dirs" 24
    (List.length (Dfs.File_store.readdir store (Dfs.File_store.root store)));
  let fh = Workload.File_tree.pick_file tree prng in
  let attr = Dfs.File_store.getattr store fh in
  check_bool "picked a regular file with contents" true
    (attr.Dfs.File_store.kind = Dfs.File_store.Regular
    && attr.Dfs.File_store.size > 0)

(* Every file the tree builds holds exactly its pattern: byte [i] of
   file [fh] is [(fh + i) land 0xFF], for its whole size. *)
let tree_files_hold_their_pattern () =
  let tree = Workload.File_tree.build (Sim.Prng.create 7_000_021) in
  let store = Workload.File_tree.store tree in
  let files = ref 0 in
  let rec walk dir =
    List.iter
      (fun (_, fh) ->
        let attr = Dfs.File_store.getattr store fh in
        match attr.Dfs.File_store.kind with
        | Dfs.File_store.Regular ->
            incr files;
            let size = attr.Dfs.File_store.size in
            let expected =
              Bytes.init size (fun i -> Char.chr ((fh + i) land 0xFF))
            in
            if
              not
                (Bytes.equal expected
                   (Dfs.File_store.read store fh ~off:0 ~count:(size + 100)))
            then Alcotest.failf "file %d (%d bytes) is not its pattern" fh size
        | Dfs.File_store.Directory -> walk fh
        | Dfs.File_store.Symlink -> ())
      (Dfs.File_store.readdir store dir)
  in
  walk (Dfs.File_store.root store);
  check_int "every file checked" (24 * 16) !files

let trace_respects_mix () =
  let prng = Sim.Prng.create 23 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale:500 tree prng in
  check_int "scaled size" (Workload.Mix.total_calls / 500) (Array.length events);
  let counts = Workload.Trace.counts_by_label events in
  let share label =
    100.
    *. float_of_int (Option.value ~default:0 (List.assoc_opt label counts))
    /. float_of_int (Array.length events)
  in
  check_bool "getattr ~31%" true
    (Rig.within ~tolerance:0.1 ~expected:31.0 (share "Get File Attribute"));
  check_bool "null ping ~12.5%" true
    (Rig.within ~tolerance:0.1 ~expected:12.5 (share "Null Ping Call"))

let trace_events_are_executable () =
  let prng = Sim.Prng.create 29 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale:2000 tree prng in
  let store = Workload.File_tree.store tree in
  Array.iter
    (fun (e : Workload.Trace.event) ->
      match Dfs.Server.execute store e.Workload.Trace.op with
      | Dfs.Nfs_ops.R_error code ->
          Alcotest.failf "trace op %s failed with %d" e.Workload.Trace.label code
      | _ -> ())
    events

let traffic_ratios_in_band () =
  let prng = Sim.Prng.create 31 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale:500 tree prng in
  let rows = Workload.Traffic.of_trace (Workload.File_tree.store tree) events in
  let total = Workload.Traffic.totals rows in
  let overall = Workload.Traffic.ratio total in
  check_bool "overall ratio near the paper's 0.14" true
    (overall > 0.10 && overall < 0.18);
  let write =
    List.find (fun (r : Workload.Traffic.row) ->
        String.equal r.Workload.Traffic.label "Write File Data")
      rows
  in
  check_bool "write ratio near the paper's 0.01" true
    (Workload.Traffic.ratio write < 0.02)

let suite =
  [
    Alcotest.test_case "zipf skew" `Quick zipf_skew;
    Alcotest.test_case "mix sums" `Quick mix_sums_to_total;
    Alcotest.test_case "mix sampler matches table" `Quick mix_sampler_matches;
    Alcotest.test_case "file tree well formed" `Quick tree_is_well_formed;
    Alcotest.test_case "trace respects mix" `Quick trace_respects_mix;
    Alcotest.test_case "trace events executable" `Quick trace_events_are_executable;
    Alcotest.test_case "traffic ratios in band" `Quick traffic_ratios_in_band;
    QCheck_alcotest.to_alcotest zipf_bounds;
    Alcotest.test_case "file tree files hold their pattern" `Quick
      tree_files_hold_their_pattern;
    Alcotest.test_case "zipf guide table matches binary search" `Quick
      zipf_guide_matches_search;
  ]
