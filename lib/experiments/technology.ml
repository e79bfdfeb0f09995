(* Ablation H: does the argument survive its own technology trend?

   The paper's motivation is that faster processors and faster
   switched networks permit — and demand — tighter coupling.  We rerun
   the HY/DX comparison on two machines: the 1994 testbed (DECstation +
   140 Mb/s FORE ATM) and a mid-90s projection (5x faster CPU, 622 Mb/s
   OC-12 fabric), and check how the separation dividend moves: DX must
   win on every operation in both. *)

module T = Metrics.Table

let sample_ops fixture =
  List.filter
    (fun (name, _) ->
      List.mem name
        [ "GetAttribute"; "Readfile(8K)"; "Readfile(1K)"; "WriteFile(8K)" ])
    (Fixture.figure_ops fixture)

let measure ~profile ?costs ?net_config () =
  let fixture = Fixture.create ?costs ?net_config () in
  let clerk = Fixture.clerk fixture 0 in
  let time op =
    snd (Fixture.time fixture (fun () -> Dfs.Clerk.remote_fetch clerk op))
  in
  Fixture.run fixture (fun () ->
      Fixture.recache_bench fixture;
      List.map
        (fun (name, op) ->
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Hybrid1;
          let hy = time op in
          Dfs.Clerk.set_scheme clerk Dfs.Clerk.Dx;
          let dx = time op in
          [
            T.text profile;
            T.text name;
            T.num hy;
            T.num ~band:[ Lt hy ] dx;
            T.num (hy /. dx);
          ])
        (sample_ops fixture))

let oc12 =
  { Atm.Config.default with Atm.Config.bandwidth_mbps = 622.0 }

let run () =
  let today = measure ~profile:"1994 testbed" () in
  let next =
    measure ~profile:"next-gen (5x CPU, OC-12)"
      ~costs:Cluster.Costs.next_generation ~net_config:oc12 ()
  in
  T.make ~title:"Ablation H: the HY/DX trade-off across technology generations"
    [
      T.label "Profile";
      T.label "Operation";
      T.number ~unit_:"us" ~better:Lower "HY (us)" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "DX (us)" (Fixed 0);
      T.number ~unit_:"ratio" "HY/DX" (Fixed 2);
    ]
    (today @ next)
