(* Ablation G: three ways to ask a remote table a question (§6).

   The same name lookup served by (a) pure data transfer — the client
   remote-reads the registry slot and decodes it itself; (b) Active
   Messages — the request runs a handler at interrupt level on the
   server, which fires the answer back the same way; (c) classic RPC.

   Active Messages avoid RPC's scheduling but still place the lookup
   computation on the server CPU for every request; pure data transfer
   moves it to the client entirely.  That is the design space the
   paper's related-work section draws.  RPC must show the highest lookup
   latency and server CPU, and pure data transfer less server CPU than
   Active Messages. *)

module T = Metrics.Table

let iterations = 30
let am_lookup = 1
let am_reply = 2
let rpc_lookup_prog = 0x3001

let registry_slots = 256

type rig = {
  testbed : Cluster.Testbed.t;
  engine : Sim.Engine.t;
  server : Cluster.Node.t;
  client : Cluster.Node.t;
  registry : Names.Registry.t;
  registry_space : Cluster.Address_space.t;
  names : string array;
}

let make_rig () =
  let testbed = Cluster.Testbed.create ~nodes:2 () in
  let server = Cluster.Testbed.node testbed 0 in
  let client = Cluster.Testbed.node testbed 1 in
  let registry_space = Cluster.Node.new_address_space server in
  let registry =
    Names.Registry.create ~space:registry_space ~base:0 ~slots:registry_slots
  in
  let names = Array.init 32 (fun i -> Printf.sprintf "svc/obj-%03d" i) in
  Array.iter
    (fun name ->
      match
        Names.Registry.insert registry
          (Names.Record.make ~name ~node:0 ~segment_id:1
             ~generation:Rmem.Generation.initial ~size:4096
             ~rights:Rmem.Rights.all)
      with
      | Ok _ -> ()
      | Error `Full -> failwith "registry full")
    names;
  {
    testbed;
    engine = Cluster.Testbed.engine testbed;
    server;
    client;
    registry;
    registry_space;
    names;
  }

let measure_loop rig ~lookup =
  Cluster.Cpu.reset_accounting (Cluster.Node.cpu rig.server);
  let latencies = Metrics.Summary.create () in
  for i = 1 to iterations do
    let name = rig.names.(i mod Array.length rig.names) in
    let t0 = Sim.Engine.now rig.engine in
    lookup name;
    Metrics.Summary.add latencies
      (Sim.Time.to_us (Sim.Time.diff (Sim.Engine.now rig.engine) t0))
  done;
  let busy = Sim.Time.to_us (Cluster.Cpu.busy_time (Cluster.Node.cpu rig.server)) in
  (Metrics.Summary.mean latencies, busy /. float_of_int iterations)

(* (a) Pure data transfer: the client READs each probed slot into its
   buffer and charges itself the hash lookup. *)
type prober = {
  rmem : Rmem.Remote_memory.t;
  desc : Rmem.Descriptor.t;
  buf : Rmem.Remote_memory.buffer;
  node : Cluster.Node.t;
}

let probe_slot p soff =
  Rmem.Remote_memory.read_wait p.rmem p.desc ~soff
    ~count:Names.Record.slot_bytes ~dst:p.buf ~doff:0 ();
  Cluster.Cpu.use (Cluster.Node.cpu p.node) ~category:Cluster.Cpu.cat_client
    (Cluster.Node.costs p.node).Cluster.Costs.hash_lookup;
  0

let measure_rmem () =
  let rig = make_rig () in
  let r0 = Rmem.Remote_memory.attach rig.server in
  let r1 = Rmem.Remote_memory.attach rig.client in
  Rmem.Remote_memory.set_server_role r0;
  let out = ref None in
  Cluster.Testbed.run rig.testbed (fun () ->
      let segment =
        Rmem.Remote_memory.export r0 ~space:rig.registry_space ~base:0
          ~len:(Names.Registry.segment_bytes ~slots:registry_slots)
          ~rights:Rmem.Rights.read_only ~name:"registry" ()
      in
      let desc =
        Rmem.Remote_memory.import r1 ~remote:(Cluster.Node.addr rig.server)
          ~segment_id:(Rmem.Segment.id segment)
          ~generation:(Rmem.Segment.generation segment)
          ~size:(Names.Registry.segment_bytes ~slots:registry_slots)
          ()
      in
      let space = Cluster.Node.new_address_space rig.client in
      let buf = Rmem.Remote_memory.buffer ~space ~base:0 ~len:256 in
      let reader =
        Names.Registry.reader space ~slot:probe_slot
          { rmem = r1; desc; buf; node = rig.client }
      in
      let lookup name =
        match Names.Registry.walk ~slots:registry_slots reader name with
        | Dds.Probe.Found _ -> ()
        | Dds.Probe.Absent _ -> failwith "rmem lookup: name absent"
      in
      out := Some (measure_loop rig ~lookup));
  Option.get !out

(* (b) Active messages. *)
let measure_amsg () =
  let rig = make_rig () in
  let am_server = Amsg.attach rig.server in
  let am_client = Amsg.attach rig.client in
  let out = ref None in
  Cluster.Testbed.run rig.testbed (fun () ->
      let client_space = Cluster.Node.new_address_space rig.client in
      (* Server handler: parse the name, look it up, reply with another
         active message; its span is the same hash cost the clerk pays. *)
      Amsg.register am_server ~id:am_lookup (fun ~src:_ args ~pos ~len ->
          let name = Bytes.sub_string args pos len in
          match Names.Registry.lookup rig.registry name with
          | Some (record, _) ->
              let answer = Names.Record.encode record in
              let n = Bytes.length answer in
              let f = Amsg.frame am_server ~len:n in
              Bytes.blit answer 0 (Atm.Frame.payload f) Amsg.header_bytes n;
              Amsg.reply am_server ~handler:am_reply f;
              (Cluster.Node.costs rig.server).Cluster.Costs.hash_lookup
          | None -> failwith "amsg lookup: name absent");
      (* Client handler: deposit the answer and flip the flag word. *)
      Amsg.register am_client ~id:am_reply (fun ~src:_ args ~pos ~len ->
          Cluster.Address_space.write_from client_space ~addr:4 args ~pos ~len;
          Cluster.Address_space.write_word client_space ~addr:0 1;
          Sim.Time.zero);
      let lookup name =
        Cluster.Address_space.write_word client_space ~addr:0 0;
        Amsg.send am_client
          ~dst:(Cluster.Node.addr rig.server)
          ~handler:am_lookup (Bytes.of_string name);
        ignore
          (Sim.Proc.spin ~every:(Sim.Time.us 5) ~deadline:max_int (fun () ->
               Cluster.Address_space.read_word client_space ~addr:0 <> 0)
            : bool)
      in
      out := Some (measure_loop rig ~lookup));
  Option.get !out

(* (c) Classic RPC. *)
let measure_rpc () =
  let rig = make_rig () in
  let t0 = Rpckit.Transport.attach rig.server in
  let t1 = Rpckit.Transport.attach rig.client in
  let out = ref None in
  Cluster.Testbed.run rig.testbed (fun () ->
      let (_ : Rpckit.Server.t) =
        Rpckit.Server.create t0 ~prog:rpc_lookup_prog ~threads:1
          ~handler:(fun ~src:_ ~proc:_ reader ->
            let name = Rpckit.Xdr.read_string reader in
            let c = Cluster.Node.costs rig.server in
            Cluster.Cpu.use (Cluster.Node.cpu rig.server)
              ~category:Cluster.Cpu.cat_procedure c.Cluster.Costs.hash_lookup;
            let reply = Rpckit.Xdr.create () in
            (match Names.Registry.lookup rig.registry name with
            | Some (record, _) ->
                Rpckit.Xdr.opaque reply (Names.Record.encode record)
            | None -> failwith "rpc lookup: name absent");
            reply)
          ()
      in
      let lookup name =
        let args = Rpckit.Xdr.create () in
        Rpckit.Xdr.string args name;
        let reply =
          Rpckit.Client.call t1 ~dst:(Cluster.Node.addr rig.server)
            ~prog:rpc_lookup_prog ~proc:1 ~label:"lookup" args
        in
        ignore (Rpckit.Xdr.read_opaque reply : bytes)
      in
      out := Some (measure_loop rig ~lookup));
  Option.get !out

let run () =
  let ((dx_us, dx_cpu) as dx) = measure_rmem () in
  let ((am_us, am_cpu) as am) = measure_amsg () in
  let row scheme ?(latency = []) ?(cpu = []) (mean, per) =
    [ T.text scheme; T.num ~band:latency mean; T.num ~band:cpu per ]
  in
  T.make
    ~title:"Ablation G: one name lookup, three communication models (section 6)"
    [
      T.label "Scheme";
      T.number ~unit_:"us" ~better:Lower "Mean lookup (us)" (Fixed 0);
      T.number ~unit_:"us" ~better:Lower "Server CPU / lookup (us)" (Fixed 0);
    ]
    [
      row "remote read (DX)" dx ~cpu:[ Lt am_cpu ];
      row "active messages" am;
      row "RPC" (measure_rpc ())
        ~latency:[ Gt (Float.max dx_us am_us) ]
        ~cpu:[ Gt (Float.max dx_cpu am_cpu) ];
    ]
