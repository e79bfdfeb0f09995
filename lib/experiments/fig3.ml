(* Figure 3: breakdown of server CPU activity per operation.

   Under Hybrid-1 the server pays data reception, control transfer
   (notification + dispatch), procedure invocation and data reply; under
   pure data transfer it pays only the emulation of incoming and
   outgoing remote memory operations (reception + reply).  The paper's
   claim: on average DX imposes less than half the HY server load.  DX
   must also show no procedure or control-transfer time (at most 1 us)
   and HY at least 200 us of control transfer per operation. *)

module T = Metrics.Table

let iterations = 8

let read_breakdown fixture ~per =
  let account = Cluster.Cpu.account (Fixture.server_cpu fixture) in
  List.map
    (fun category -> Metrics.Account.total_of account category /. per)
    Cluster.Cpu.
      [ cat_data_reception; cat_control_transfer; cat_procedure; cat_data_reply ]

let measure fixture clerk scheme op =
  Dfs.Clerk.set_scheme clerk scheme;
  (* One untimed run to settle any lazy state, then measure. *)
  ignore (Dfs.Clerk.remote_fetch clerk op : Dfs.Nfs_ops.result);
  Sim.Proc.wait (Sim.Time.ms 5);
  Fixture.reset_accounting fixture;
  for _ = 1 to iterations do
    ignore (Dfs.Clerk.remote_fetch clerk op : Dfs.Nfs_ops.result)
  done;
  (* Let asynchronous deliveries (write pushes) finish before reading
     the accounts. *)
  Sim.Proc.wait (Sim.Time.ms 5);
  read_breakdown fixture ~per:(float_of_int iterations)

let run () =
  let fixture = Fixture.create () in
  let clerk = Fixture.clerk fixture 0 in
  let rows =
    Fixture.run fixture (fun () ->
        Fixture.recache_bench fixture;
        List.map
          (fun (name, op) ->
            let hy = measure fixture clerk Dfs.Clerk.Hybrid1 op in
            (name, hy, measure fixture clerk Dfs.Clerk.Dx op))
          (Fixture.figure_ops fixture))
  in
  let total = List.fold_left ( +. ) 0. in
  let load_ratio =
    List.fold_left
      (fun acc (_, hy, dx) -> acc +. (total dx /. total hy))
      0. rows
    /. float_of_int (List.length rows)
  in
  let segment = T.number ~unit_:"us" ~better:Lower in
  let bar op scheme bands b =
    T.text op :: T.text scheme
    :: List.map2 (fun band us -> T.num ~band us) bands b
  in
  T.make ~title:"Figure 3: Breakdown of Server Activity" ~layout:Bars
    [
      T.label "Operation";
      T.label "Scheme";
      segment "data reception" (Fixed 1);
      segment "control transfer" (Fixed 1);
      segment "procedure invocation" (Fixed 1);
      segment "data reply" (Fixed 1);
    ]
    (List.concat_map
       (fun (op, hy, dx) ->
         [
           bar op "HY" [ []; [ Ge 200. ]; []; [] ] hy;
           bar op "DX" [ []; [ Le 1. ]; [ Le 1. ]; [] ] dx;
         ])
       rows)
    ~notes:
      [
        [
          Lit "average DX/HY server-load ratio over the 12 ops: ";
          Val
            ( T.number ~better:Lower "DX/HY server load" (Fixed 2),
              T.num ~paper:0.5 ~band:[ Gt 0.1; Lt 0.5 ] load_ratio );
          Lit " (paper: < 0.5)";
        ];
      ]
