(* Table 1b: breakdown of NFS RPC traffic into control and data.

   Control is what the RPC style forces onto the wire beyond the data a
   direct memory-to-memory primitive would move: handles, transaction
   ids, offsets, names used only to locate data, marshaling overhead.
   The paper reports the writes row at ratio 0.01 and the overall total
   at 766/5573 = 0.14 (about 12% of total traffic). *)

type row = { label : string; control_kb : float; data_kb : float; ratio : float }

type result = {
  rows : row list;
  total : row;
  paper_write_ratio : float;
  paper_overall_ratio : float;
  paper_control_fraction : float;
}

let row_of (r : Workload.Traffic.row) =
  {
    label = r.Workload.Traffic.label;
    control_kb = float_of_int r.Workload.Traffic.control /. 1024.;
    data_kb = float_of_int r.Workload.Traffic.data /. 1024.;
    ratio = Workload.Traffic.ratio r;
  }

let run () =
  let prng = Sim.Prng.create 11 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale:1000 tree prng in
  let rows = Workload.Traffic.of_trace (Workload.File_tree.store tree) events in
  {
    rows = List.map row_of rows;
    total = row_of (Workload.Traffic.totals rows);
    paper_write_ratio = 0.01;
    paper_overall_ratio = 766. /. 5573.;
    paper_control_fraction = 0.12;
  }

let control_fraction result =
  result.total.control_kb /. (result.total.control_kb +. result.total.data_kb)

let write_ratio result =
  match
    List.find_opt (fun r -> String.equal r.label "Write File Data") result.rows
  with
  | Some r -> r.ratio
  | None -> nan

let render result =
  let table =
    Metrics.Table.create ~title:"Table 1b: Breakdown of NFS RPC Traffic"
      [
        ("Activity", Metrics.Table.Left);
        ("Control (KB)", Metrics.Table.Right);
        ("Data (KB)", Metrics.Table.Right);
        ("Control/Data", Metrics.Table.Right);
      ]
  in
  let add row =
    Metrics.Table.add_row table
      [
        row.label;
        Printf.sprintf "%.1f" row.control_kb;
        Printf.sprintf "%.1f" row.data_kb;
        (if not (Float.is_finite row.ratio) then "inf"
         else Printf.sprintf "%.2f" row.ratio);
      ]
  in
  List.iter add result.rows;
  Metrics.Table.add_separator table;
  add { result.total with label = "Overall Total" };
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Metrics.Table.render table);
  Buffer.add_string buf
    (Printf.sprintf
       "control fraction of total traffic: %.1f%% (paper: ~12%%)\n\
        write control/data ratio: %.3f (paper: 0.01)\n\
        overall control/data ratio: %.3f (paper: 0.14)\n"
       (100. *. control_fraction result)
       (write_ratio result)
       (result.total.ratio));
  Buffer.contents buf
