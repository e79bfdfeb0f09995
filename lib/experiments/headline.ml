(* The paper's headline number: "for a small set of file server
   operations, our analysis shows a 50% decrease in server load when we
   switched from a communications mechanism requiring both control
   transfer and data transfer, to an alternative structure based on
   pure data transfer."

   We replay the same Table 1a operation mix through the file service
   under Hybrid-1 and under pure data transfer, and compare total
   server CPU consumption.  The reduction must reach the paper's 50%
   (and stay below 95%). *)

module T = Metrics.Table

let replay fixture clerk scheme events =
  Dfs.Clerk.set_scheme clerk scheme;
  Fixture.reset_accounting fixture;
  Array.iter
    (fun (e : Workload.Trace.event) ->
      ignore (Dfs.Clerk.remote_fetch clerk e.Workload.Trace.op : Dfs.Nfs_ops.result))
    events;
  Sim.Proc.wait (Sim.Time.ms 10);
  let account = Cluster.Cpu.account (Fixture.server_cpu fixture) in
  (Metrics.Account.grand_total account, Metrics.Account.to_list account)

let run () =
  let fixture = Fixture.create () in
  let clerk = Fixture.clerk fixture 0 in
  (* Generate events against the fixture's own tree so handles match the
     warmed server caches. *)
  let events =
    Workload.Trace.generate ~scale:20000 fixture.Fixture.tree
      fixture.Fixture.prng
  in
  let (hy, hy_breakdown), (dx, dx_breakdown) =
    Fixture.run fixture (fun () ->
        let hy = replay fixture clerk Dfs.Clerk.Hybrid1 events in
        (hy, replay fixture clerk Dfs.Clerk.Dx events))
  in
  let us = T.number ~unit_:"us" ~better:Lower in
  let line name total breakdown =
    [
      T.Lit (Printf.sprintf "  %-3s server CPU: " name);
      Val (us (name ^ " server CPU") (Padded (10, 0)), T.num total);
      Lit " us  (";
    ]
    @ List.concat
        (List.mapi
           (fun i (category, v) ->
             [
               T.Lit ((if i = 0 then "" else ", ") ^ category ^ " ");
               Val (us (name ^ " " ^ category) (Fixed 0), T.num v);
             ])
           breakdown)
    @ [ Lit ")" ]
  in
  T.make ~title:"Headline: server load under the Table 1a mix" [] []
    ~notes:
      [
        [
          Lit "  events replayed: ";
          Val
            ( T.number ~unit_:"events" "events replayed" (Fixed 0),
              T.num (float_of_int (Array.length events)) );
          Lit " (per scheme)";
        ];
        line "HY" hy hy_breakdown;
        line "DX" dx dx_breakdown;
        [
          Lit "  server load reduction: ";
          Val
            ( T.number ~better:Higher "server load reduction" (Percent 0),
              T.num ~paper:0.5 ~band:[ Ge 0.5; Lt 0.95 ] (1. -. (dx /. hy)) );
          Lit " (paper: ~50%)";
        ];
      ]
