(* Ablation C: probing versus control transfer in the name server
   (§4.2).  The paper reasons that with their costs, remote probing
   beats transferring control unless seven or more hash collisions must
   be chased.  We build collision chains of increasing length and
   measure the uncached lookup under both policies, locating the
   crossover, which must fall at a single-digit chain length (2 to 9). *)

module T = Metrics.Table

(* Find [n] distinct names that all hash to the same registry slot. *)
let colliding_names ~slots ~target n =
  let rec collect acc i =
    if List.length acc >= n then List.rev acc
    else begin
      let name = Printf.sprintf "col%06d" i in
      if Names.Record.fnv_hash name land (slots - 1) = target then
        collect (name :: acc) (i + 1)
      else collect acc (i + 1)
    end
  in
  collect [] 0

let max_chain = 12

let run () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let engine = Cluster.Testbed.engine testbed in
  let n0 = Cluster.Testbed.node testbed 0 in
  let n1 = Cluster.Testbed.node testbed 1 in
  let r0 = Rmem.Remote_memory.attach n0 in
  let r1 = Rmem.Remote_memory.attach n1 in
  let points =
    Cluster.Testbed.run testbed (fun () ->
        let c0 = Names.Clerk.create r0 in
        let c1 = Names.Clerk.create r1 in
        Names.Clerk.serve_lookup_requests c0;
        Names.Clerk.serve_lookup_requests c1;
        let slots = Names.Registry.slots (Names.Clerk.registry c1) in
        let names = colliding_names ~slots ~target:17 (max_chain + 1) in
        let space1 = Cluster.Node.new_address_space n1 in
        (* Export the chain in order: name k needs k probes to reach. *)
        List.iteri
          (fun i name ->
            ignore
              (Names.Api.export c1 ~space:space1 ~base:(i * 4096) ~len:64 ~name ()
                : Rmem.Segment.t))
          names;
        (* Warm bootstrap descriptors. *)
        let hint = Cluster.Node.addr n1 in
        let (_ : Rmem.Descriptor.t) =
          Names.Api.import ~hint c0 (List.hd names)
        in
        let (_ : Rmem.Descriptor.t) =
          Names.Api.import_with_control_transfer ~hint c0 (List.hd names)
        in
        let time body =
          let t0 = Sim.Engine.now engine in
          let (_ : Rmem.Descriptor.t) = body () in
          Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now engine) t0)
        in
        List.mapi
          (fun chain name ->
            let probing =
              time (fun () -> Names.Api.import ~force:true ~hint c0 name)
            in
            ( chain,
              probing,
              time (fun () ->
                  Names.Api.import_with_control_transfer ~hint c0 name) ))
          names)
  in
  let crossover =
    List.find_map
      (fun (chain, probing, control) ->
        if probing > control then Some chain else None)
      points
  in
  let crossover_cell value =
    T.Val
      ( T.number "crossover" (Fixed 0),
        { value; paper = Some 7.; band = [ Ge 2.; Le 9. ] } )
  in
  T.make
    ~title:"Ablation C: remote probing vs control transfer in name lookup (us)"
    [
      T.number ~unit_:"probes" "Collisions" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Probing" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Control transfer" (Fixed 0);
    ]
    (List.map
       (fun (chain, probing, control) ->
         [ T.num (float_of_int chain); T.num probing; T.num control ])
       points)
    ~notes:
      [
        (match crossover with
        | Some chain ->
            [
              Lit "control transfer wins from ";
              crossover_cell (Num (float_of_int chain));
              Lit " collisions (paper: ~7)";
            ]
        | None ->
            [
              Lit "probing won at every measured chain length";
              crossover_cell Missing;
            ]);
      ]
