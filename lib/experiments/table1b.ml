(* Table 1b: breakdown of NFS RPC traffic into control and data.

   Control is what the RPC style forces onto the wire beyond the data a
   direct memory-to-memory primitive would move: handles, transaction
   ids, offsets, names used only to locate data, marshaling overhead.
   The paper reports the writes row at ratio 0.01 and the overall total
   at 766/5573 = 0.14 (about 12% of total traffic). *)

module T = Metrics.Table

let kb bytes = T.num (float_of_int bytes /. 1024.)

let row_of label (r : Workload.Traffic.row) =
  [
    T.text label;
    kb r.Workload.Traffic.control;
    kb r.Workload.Traffic.data;
    T.num (Workload.Traffic.ratio r);
  ]

let run () =
  let prng = Sim.Prng.create 11 in
  let tree = Workload.File_tree.build prng in
  let events = Workload.Trace.generate ~scale:1000 tree prng in
  let rows = Workload.Traffic.of_trace (Workload.File_tree.store tree) events in
  let total = Workload.Traffic.totals rows in
  let share = T.number ~unit_:"ratio" ~better:Lower in
  let write =
    List.find (fun r -> r.Workload.Traffic.label = "Write File Data") rows
  in
  let control = float_of_int total.Workload.Traffic.control in
  T.make ~title:"Table 1b: Breakdown of NFS RPC Traffic"
    [
      T.label "Activity";
      T.number ~unit_:"KB" "Control (KB)" (Fixed 1);
      T.number ~unit_:"KB" "Data (KB)" (Fixed 1);
      share "Control/Data" (Fixed 2);
    ]
    (List.map (fun r -> row_of r.Workload.Traffic.label r) rows)
    ~total:(row_of "Overall Total" total)
    ~notes:
      [
        [
          T.Lit "control fraction of total traffic: ";
          Val
            ( share "control fraction" (Percent 1),
              T.num ~paper:0.12 ~band:[ Gt 0.09; Lt 0.16 ]
                (control /. (control +. float_of_int total.Workload.Traffic.data))
            );
          Lit " (paper: ~12%)";
        ];
        [
          Lit "write control/data ratio: ";
          Val
            ( share "write control/data" (Fixed 3),
              T.num ~paper:0.01 ~band:[ Lt 0.02 ] (Workload.Traffic.ratio write)
            );
          Lit " (paper: 0.01)";
        ];
        [
          Lit "overall control/data ratio: ";
          Val
            ( share "overall control/data" (Fixed 3),
              T.num ~paper:(766. /. 5573.) ~band:[ Gt 0.10; Lt 0.18 ]
                (Workload.Traffic.ratio total) );
          Lit " (paper: 0.14)";
        ];
      ]
