(* rnet nfstrace — generate and inspect synthetic NFS traces.

     rnet nfstrace summary     # operation mix
     rnet nfstrace dump --count 10
     rnet nfstrace traffic     # control/data traffic split

   A small operator tool around the workload library.  --json emits one
   self-validated object per view on stdout; --ci sanity-asserts the
   trace and exits 1 on violation. *)

module J = Analysis.Report.Json

let make_trace ~scale ~seed =
  let prng = Sim.Prng.create seed in
  let tree = Workload.File_tree.build prng in
  (tree, Workload.Trace.generate ~scale tree prng)

let header ~command ~scale ~seed =
  [
    ("schema", J.int Analysis.Report.schema_version);
    ("tool", J.str "nfstrace");
    ("command", J.str command);
    ("scale", J.int scale);
    ("seed", J.int seed);
  ]

(* --ci leg shared by the subcommands: the mix must be non-empty and
   its counts must account for every generated event exactly once. *)
let assert_trace ~command events =
  let counts = Workload.Trace.counts_by_label events in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  if Array.length events = 0 then begin
    Printf.eprintf "nfstrace: %s: generated an empty trace\n" command;
    false
  end
  else if total <> Array.length events then begin
    Printf.eprintf
      "nfstrace: %s: mix accounts for %d of %d events\n" command total
      (Array.length events);
    false
  end
  else begin
    Printf.eprintf "nfstrace: %s ok (%d events, %d activities)\n" command
      (Array.length events) (List.length counts);
    true
  end

let summary ~scale ~seed ~json ~ci =
  let _, events = make_trace ~scale ~seed in
  let counts = Workload.Trace.counts_by_label events in
  if json then
    Analysis.Report.emit ~tool:"nfstrace"
      (J.to_string
         (J.obj
            (header ~command:"summary" ~scale ~seed
            @ [
                ("events", J.int (Array.length events));
                ( "mix",
                  J.list
                    (List.map
                       (fun (label, count) ->
                         J.obj
                           [ ("activity", J.str label); ("calls", J.int count) ])
                       counts) );
              ])))
  else begin
    Metrics.Table.(
      print
        (make
           ~title:
             (Printf.sprintf "Trace summary (%d events)" (Array.length events))
           [ label "Activity"; label ~align:Right "Calls"; label ~align:Right "%" ]
           (List.map
              (fun (label, count) ->
                List.map text
                  [
                    label;
                    string_of_int count;
                    Printf.sprintf "%.1f"
                      (100. *. float_of_int count
                      /. float_of_int (Array.length events));
                  ])
              counts)))
  end;
  (not ci) || assert_trace ~command:"summary" events

let describe_op (op : Dfs.Nfs_ops.op) =
  match op with
  | Dfs.Nfs_ops.Null -> "null"
  | Dfs.Nfs_ops.Statfs -> "statfs"
  | Dfs.Nfs_ops.Get_attr { fh } -> Printf.sprintf "getattr fh=%d" fh
  | Dfs.Nfs_ops.Lookup { dir; name } -> Printf.sprintf "lookup dir=%d %S" dir name
  | Dfs.Nfs_ops.Read_link { fh } -> Printf.sprintf "readlink fh=%d" fh
  | Dfs.Nfs_ops.Read { fh; off; count } ->
      Printf.sprintf "read fh=%d off=%d count=%d" fh off count
  | Dfs.Nfs_ops.Read_dir { fh; count } ->
      Printf.sprintf "readdir fh=%d count=%d" fh count
  | Dfs.Nfs_ops.Write { fh; off; data } ->
      Printf.sprintf "write fh=%d off=%d count=%d" fh off (Bytes.length data)
  | Dfs.Nfs_ops.Set_attr { fh; mode; size } ->
      Printf.sprintf "setattr fh=%d mode=%o size=%d" fh mode size
  | Dfs.Nfs_ops.Create { dir; name } -> Printf.sprintf "create dir=%d %S" dir name
  | Dfs.Nfs_ops.Remove { dir; name } -> Printf.sprintf "remove dir=%d %S" dir name
  | Dfs.Nfs_ops.Rename { from_dir; from_name; to_dir; to_name } ->
      Printf.sprintf "rename %d/%S -> %d/%S" from_dir from_name to_dir to_name
  | Dfs.Nfs_ops.Mkdir { dir; name } -> Printf.sprintf "mkdir dir=%d %S" dir name
  | Dfs.Nfs_ops.Rmdir { dir; name } -> Printf.sprintf "rmdir dir=%d %S" dir name

let dump ~scale ~seed ~count ~json ~ci =
  let _, events = make_trace ~scale ~seed in
  if json then
    Analysis.Report.emit ~tool:"nfstrace"
      (J.to_string
         (J.obj
            (header ~command:"dump" ~scale ~seed
            @ [
                ("events", J.int (Array.length events));
                ( "head",
                  J.list
                    (List.filteri
                       (fun i _ -> i < count)
                       (Array.to_list events)
                    |> List.mapi (fun i (e : Workload.Trace.event) ->
                           J.obj
                             [
                               ("index", J.int i);
                               ("activity", J.str e.Workload.Trace.label);
                               ("op", J.str (describe_op e.Workload.Trace.op));
                             ])) );
              ])))
  else
    Array.iteri
      (fun i (e : Workload.Trace.event) ->
        if i < count then
          Printf.printf "%6d  %-26s %s\n" i e.Workload.Trace.label
            (describe_op e.Workload.Trace.op))
      events;
  (not ci) || assert_trace ~command:"dump" events

let traffic ~scale ~seed ~json ~ci =
  let tree, events = make_trace ~scale ~seed in
  let rows = Workload.Traffic.of_trace (Workload.File_tree.store tree) events in
  let total = Workload.Traffic.totals rows in
  if json then
    Analysis.Report.emit ~tool:"nfstrace"
      (J.to_string
         (J.obj
            (header ~command:"traffic" ~scale ~seed
            @ [
                ( "rows",
                  J.list
                    (List.map
                       (fun (r : Workload.Traffic.row) ->
                         J.obj
                           [
                             ("activity", J.str r.Workload.Traffic.label);
                             ( "control_bytes",
                               J.int r.Workload.Traffic.control );
                             ("data_bytes", J.int r.Workload.Traffic.data);
                           ])
                       rows) );
                ("control_bytes", J.int total.Workload.Traffic.control);
                ("data_bytes", J.int total.Workload.Traffic.data);
                ( "control_data_ratio",
                  J.raw
                    (Printf.sprintf "%.3f" (Workload.Traffic.ratio total)) );
              ])))
  else begin
    let kb bytes = Printf.sprintf "%.1f" (float_of_int bytes /. 1024.) in
    let row label (r : Workload.Traffic.row) =
      List.map Metrics.Table.text
        [ label; kb r.Workload.Traffic.control; kb r.Workload.Traffic.data ]
    in
    Metrics.Table.(
      print
        (make ~title:"Traffic split (per the paper's Table 1b rules)"
           [
             label "Activity";
             label ~align:Right "Control (KB)";
             label ~align:Right "Data (KB)";
           ]
           (List.map (fun r -> row r.Workload.Traffic.label r) rows)
           ~total:(row "Total" total)));
    Printf.printf "overall control/data ratio: %.3f\n"
      (Workload.Traffic.ratio total)
  end;
  (not ci)
  || assert_trace ~command:"traffic" events
     &&
     (* Both sides of the split must be present: a trace whose data side
        is zero would make the paper's ratio argument vacuous. *)
     (total.Workload.Traffic.control > 0 && total.Workload.Traffic.data > 0
     || begin
          Printf.eprintf
            "nfstrace: traffic: degenerate split (control=%d data=%d)\n"
            total.Workload.Traffic.control total.Workload.Traffic.data;
          false
        end)

let views =
  [
    ( "summary",
      "operation mix",
      fun ~scale ~seed ~count:_ -> summary ~scale ~seed );
    ("dump", "the first $(b,--count) events", dump);
    ( "traffic",
      "control/data traffic split",
      fun ~scale ~seed ~count:_ -> traffic ~scale ~seed );
  ]

let main view scale seed count (m : Cli.mode) =
  Cli.run_all
    (fun (_, _, run) -> run ~scale ~seed ~count ~json:m.json ~ci:m.ci)
    (Cli.select ~what:"view" ~name:(fun (name, _, _) -> name) views view)

open Cmdliner

let cmd =
  let scale =
    let doc = "Scale divisor against the paper's 28.86M calls." in
    Arg.(value & opt int 1000 & info [ "scale" ] ~docv:"N" ~doc)
  in
  let count =
    Arg.(value & opt int 25 & info [ "count" ] ~docv:"N" ~doc:"Events to dump.")
  in
  Cli.cmd "nfstrace"
    ~doc:"Generate and inspect synthetic NFS traces (Table 1a mix)"
    ~ci:"Sanity-assert the generated trace; exit 1 on violation."
    Term.(
      const main
      $ Cli.choice ~docv:"VIEW" ~what:"view of the generated trace"
          (List.map (fun (name, doc, _) -> (name, doc)) views)
      $ scale $ Cli.seed 11 $ count)
