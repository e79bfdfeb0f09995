(* rnet nfstrace — generate and inspect synthetic NFS traces.

     rnet nfstrace summary     # operation mix
     rnet nfstrace dump --count 10
     rnet nfstrace traffic     # control/data traffic split

   A small operator tool around the workload library.  Each view is one
   report, whose sanity bands hold when the trace is non-empty and its
   mix accounts for every generated event exactly once (and, for the
   traffic split, both sides are present); only under --ci does a
   violated band exit 1. *)

module T = Metrics.Table

let make_trace ~scale ~seed =
  let prng = Sim.Prng.create seed in
  let tree = Workload.File_tree.build prng in
  (tree, Workload.Trace.generate ~scale tree prng)

let int ?band n = T.num ?band (float_of_int n)

(* The sanity cells every view carries: a non-empty trace whose mix
   counts each event once. *)
let sanity events =
  let n = Array.length events in
  [
    ("events", int ~band:[ T.Gt 0. ] n);
    ( "accounted",
      T.num ~paper:(float_of_int n) ~band:[ T.Near 0. ]
        (float_of_int
           (List.fold_left ( + ) 0
              (List.map snd (Workload.Trace.counts_by_label events)))) );
  ]

let summary ~scale ~seed ~count:_ =
  let _, events = make_trace ~scale ~seed in
  let n = float_of_int (Array.length events) in
  T.make
    ~title:(Printf.sprintf "Trace summary (%d events)" (Array.length events))
    ~notes:[ T.fields (sanity events) ]
    [ T.label "Activity"; T.number "Calls" (Fixed 0); T.number "%" (Fixed 1) ]
    (List.map
       (fun (label, calls) ->
         let calls = float_of_int calls in
         [ T.text label; T.num calls; T.num (100. *. calls /. n) ])
       (Workload.Trace.counts_by_label events))

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

let dump ~scale ~seed ~count =
  let _, events = make_trace ~scale ~seed in
  T.make ~title:"Trace events"
    ~notes:[ T.fields (sanity events) ]
    [ T.number "Index" Plain; T.label "Activity"; T.label "Op" ]
    (List.filteri (fun i _ -> i < count) (Array.to_list events)
    |> List.mapi (fun i (e : Workload.Trace.event) ->
           [ int i; T.text e.label; T.text (describe_op e.op) ]))

let traffic ~scale ~seed ~count:_ =
  let tree, events = make_trace ~scale ~seed in
  let rows = Workload.Traffic.of_trace (Workload.File_tree.store tree) events in
  let total = Workload.Traffic.totals rows in
  let kb bytes = T.num (float_of_int bytes /. 1024.) in
  let row label (r : Workload.Traffic.row) =
    [ T.text label; kb r.control; kb r.data ]
  in
  (* Both sides of the split must be present: a trace whose data side
     is zero would make the paper's ratio argument vacuous. *)
  T.make ~title:"Traffic split (per the paper's Table 1b rules)"
    ~notes:
      [
        T.fields
          (sanity events
          @ [
              ("control_bytes", int ~band:[ T.Gt 0. ] total.control);
              ("data_bytes", int ~band:[ T.Gt 0. ] total.data);
            ]);
        [
          T.Lit "overall control/data ratio: ";
          T.Val
            ( T.number "control_data_ratio" (Fixed 3),
              T.num (Workload.Traffic.ratio total) );
        ];
      ]
    [
      T.label "Activity";
      T.number ~unit_:"KB" "Control (KB)" (Fixed 1);
      T.number ~unit_:"KB" "Data (KB)" (Fixed 1);
    ]
    (List.map (fun (r : Workload.Traffic.row) -> row r.label r) rows)
    ~total:(row "Total" total)

let views =
  [
    ("summary", "operation mix", summary);
    ("dump", "the first $(b,--count) events", dump);
    ("traffic", "control/data traffic split", traffic);
  ]

let main view scale seed count (m : Cli.mode) =
  Cli.check ~gated:m.ci m ~tool:"nfstrace" ~key:"workload"
    ~name:(fun (name, _, _) -> name)
    (fun (_, _, run) -> run ~scale ~seed ~count)
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
