(* Figure 2: request-processing latency seen by the client, for twelve
   representative file operations, under the Hybrid-1 (HY) scheme and
   the pure-data-transfer (DX) scheme.

   Warm server caches, client-clerk communication excluded — the
   paper's best-case regime.  The claim to reproduce: DX beats HY on
   every operation, with the relative gap narrowing as transfer size
   grows (control transfer amortizes): the HY/DX ratio on GetAttribute
   must exceed twice the ratio on Readfile(8K). *)

module T = Metrics.Table

let iterations = 5

let measure fixture clerk scheme op =
  Dfs.Clerk.set_scheme clerk scheme;
  let total = ref 0. in
  for _ = 1 to iterations do
    let result, elapsed =
      Fixture.time fixture (fun () -> Dfs.Clerk.remote_fetch clerk op)
    in
    (match result with
    | Dfs.Nfs_ops.R_error code ->
        failwith (Printf.sprintf "Fig2: op failed with error %d" code)
    | _ -> ());
    total := !total +. elapsed
  done;
  !total /. float_of_int iterations

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
  let ratio = T.number ~better:Higher "HY/DX" (Fixed 1) in
  let small, small_hy, small_dx = List.hd rows
  and large, large_hy, large_dx = List.nth rows 3 in
  T.make ~title:"Figure 2: Request Processing Latency Seen by Client"
    ~layout:Bars
    [
      T.label "Operation";
      T.label "Scheme";
      T.number ~unit_:"us" ~better:Lower "latency" (Fixed 1);
    ]
    (List.concat_map
       (fun (op, hy, dx) ->
         [
           [ T.text op; T.text "HY"; T.num hy ];
           [ T.text op; T.text "DX"; T.num ~band:[ Lt hy ] dx ];
         ])
       rows)
    ~notes:
      [
        [
          Lit "DX faster on every operation: ";
          Val
            ( T.label "DX faster everywhere",
              {
                value = Flag (List.for_all (fun (_, hy, dx) -> dx < hy) rows);
                paper = None;
                band = [];
              } );
          Lit " (paper: yes)";
        ];
        [
          Lit "HY/DX ratio: ";
          Val
            ( ratio,
              T.num
                ~band:[ Gt (2. *. (large_hy /. large_dx)) ]
                (small_hy /. small_dx) );
          Lit ("x on " ^ small ^ " vs ");
          Val (ratio, T.num (large_hy /. large_dx));
          Lit ("x on " ^ large ^ " (gap narrows with size)");
        ];
      ]
