(* Recovery campaigns: small end-to-end workloads run under a fault
   plan, each with an explicit convergence check on final state.

   Every workload is deterministic given (plan, seed): the outcome
   carries the plane's event digest so a replay with the same inputs
   can be asserted identical — the contract the [chaoscheck] CLI and
   the @faults tests enforce. *)

type outcome = {
  workload : string;
  seed : int;
  survived : bool;
  converged : bool;
  detail : string;
  digest : int;
  events : int;
  retries : float;
  recovered : float;
  revalidations : float;
  gave_up : float;
  counters : (string * float) list;
  registry : Obs.Registry.t;
  timeseries : Obs.Timeseries.t option;
  engine_events : int;
}

type workload =
  plan:Plan.t ->
  seed:int ->
  sampler:Sim.Time.t option ->
  observe:(Cluster.Testbed.t -> unit) ->
  outcome

(* A workload's testbed, offered to the caller's observer before any
   endpoint attaches, so an analysis tool can subscribe to its nodes
   without this library depending on it (the dependency points
   analysis -> faults, not back). *)
let testbed ~observe nodes =
  let testbed = Cluster.Testbed.create ~nodes () in
  observe testbed;
  testbed

(* ------------------------------------------------------------------ *)
(* Telemetry: when a sampling interval is given, each workload gets a
   time-series sampler on its testbed engine with every layer's gauges
   registered.  All thunks are read-only — the perturbation contract
   {!Obs.Timeseries} documents and the @faults digest test enforces:
   the plane's event digest must be bit-identical with sampling on or
   off. *)

let fgauge ts name read =
  Obs.Timeseries.register ts name (fun () -> float_of_int (read ()))

let wire_gauges ts testbed ~rmems plane =
  let net = Cluster.Testbed.network testbed in
  List.iter
    (fun (_, _, link) ->
      let prefix = "link." ^ Atm.Link.name link in
      fgauge ts (prefix ^ ".depth") (fun () -> Atm.Link.queue_depth link);
      fgauge ts (prefix ^ ".drops") (fun () ->
          Atm.Link.drops link + Atm.Link.overflow_drops link))
    (Atm.Network.links net);
  Option.iter
    (fun switch ->
      fgauge ts "switch.depth" (fun () -> Atm.Switch.queue_depth switch);
      fgauge ts "switch.drops" (fun () -> Atm.Switch.drops switch))
    (Atm.Network.switch net);
  (* Per-switch gauges for multi-switch fabrics, plus always-present
     fabric aggregates so one SLO spec line covers every topology (a
     mesh reads 0 — the clean gate an author means, not a missing
     source). *)
  let switches = Atm.Network.switches net in
  List.iter
    (fun switch ->
      let prefix = "switch." ^ Atm.Switch.name switch in
      fgauge ts (prefix ^ ".depth") (fun () -> Atm.Switch.queue_depth switch);
      fgauge ts (prefix ^ ".drops") (fun () -> Atm.Switch.drops switch))
    switches;
  fgauge ts "fabric.switch_depth" (fun () ->
      List.fold_left (fun acc s -> acc + Atm.Switch.queue_depth s) 0 switches);
  fgauge ts "fabric.switch_drops" (fun () ->
      List.fold_left (fun acc s -> acc + Atm.Switch.drops s) 0 switches);
  List.iter
    (fun node ->
      let nic = Cluster.Node.nic node in
      let i = Atm.Addr.to_int (Cluster.Node.addr node) in
      fgauge ts
        (Printf.sprintf "nic.%d.rx_fifo" i)
        (fun () -> Atm.Nic.pending_frames nic))
    (Cluster.Testbed.nodes testbed);
  List.iter
    (fun (i, rmem) ->
      fgauge ts
        (Printf.sprintf "rmem.%d.inflight" i)
        (fun () -> Rmem.Remote_memory.inflight rmem);
      fgauge ts
        (Printf.sprintf "rmem.%d.notify_backlog" i)
        (fun () -> Rmem.Remote_memory.notification_backlog rmem))
    rmems;
  (* Cumulative plane/recovery counters as gauges, so [rate] SLO clauses
     can see bursts the end-of-run totals average away. *)
  let registry = Plane.registry plane in
  List.iter
    (fun name ->
      Obs.Timeseries.register ts name (fun () ->
          Obs.Registry.counter registry name))
    [
      "faults.frames";
      "faults.drops";
      "faults.corruptions";
      "faults.duplicates";
      "faults.delays";
      "faults.partition_drops";
      "rmem.retries";
      "rmem.recovered";
      "rmem.gave_up";
    ]

let sampler_for ~sampler testbed ~rmems plane =
  Option.map
      (fun interval ->
        let config = { Obs.Timeseries.default_config with interval } in
        let ts =
          Obs.Timeseries.create ~config (Cluster.Testbed.engine testbed)
        in
        wire_gauges ts testbed ~rmems plane;
        Obs.Timeseries.start ts;
        ts)
      sampler

(* Generous enough for 10% frame loss: per-attempt failure is a few
   tenths, ten attempts leave no realistic seed stranded. *)
let campaign_policy () =
  Rmem.Recovery.policy ~attempts:10 ~timeout:(Sim.Time.ms 2)
    ~backoff:(Sim.Time.us 250) ()

(* Control-plane calls (name-service probes) are not policy-driven;
   give them a bounded probe timeout and retry at this level. *)
let rec retrying ?(attempts = 12) ?(pause = Sim.Time.us 400) f =
  match f () with
  | v -> v
  | exception
      ( Rmem.Status.Timeout | Rmem.Status.Remote_error _
      | Names.Clerk.Name_not_found _ )
    when attempts > 1 ->
      Sim.Proc.wait pause;
      retrying ~attempts:(attempts - 1) ~pause f

let wait_until engine time =
  let now = Sim.Engine.now engine in
  if Sim.Time.(now < time) then Sim.Proc.wait (Sim.Time.diff time now)

let clerk_for rmem =
  let clerk = Names.Clerk.create rmem in
  Names.Clerk.serve_lookup_requests clerk;
  Names.Clerk.set_probe_timeout clerk (Some (Sim.Time.ms 2));
  clerk

let outcome ~workload ~seed ~plane ~timeseries ~engine_events ~survived
    ~converged ~detail =
  let registry = Plane.registry plane in
  let c name = Obs.Registry.counter registry name in
  {
    workload;
    seed;
    survived;
    converged;
    detail;
    digest = Plane.digest plane;
    events = Plane.event_count plane;
    retries = c "rmem.retries";
    recovered = c "rmem.recovered";
    revalidations = c "rmem.revalidations";
    gave_up = c "rmem.gave_up";
    counters = Obs.Registry.counters registry;
    registry;
    timeseries;
    engine_events;
  }

(* Run a workload body to quiescence, translating the two failure modes
   a fault plan can force — a deadlocked wait or an escaped status —
   into a non-survival verdict instead of a crash of the harness. *)
let guarded ~workload ~seed ~plane ~timeseries testbed body =
  let detail = ref "" in
  let converged = ref false in
  let survived =
    match Cluster.Testbed.run testbed (fun () -> body converged detail) with
    | () -> true
    | exception Sim.Engine.Deadlock _ ->
        detail := "deadlock";
        false
    | exception exn ->
        detail := Printexc.to_string exn;
        false
  in
  outcome ~workload ~seed ~plane ~timeseries
    ~engine_events:(Sim.Engine.events_fired (Cluster.Testbed.engine testbed))
    ~survived ~converged:!converged ~detail:!detail

(* ------------------------------------------------------------------ *)
(* quickstart: 2 nodes, named export/import, WRITE, READ back, CAS.    *)

let quickstart ~plan ~seed ~sampler ~observe =
  let testbed = testbed ~observe 2 in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let rmem0 = Rmem.Remote_memory.attach node0 in
  let rmem1 = Rmem.Remote_memory.attach node1 in
  let rmems = [ (0, rmem0); (1, rmem1) ] in
  let plane = Plane.create ~plan ~rmems ~seed testbed in
  let timeseries = sampler_for ~sampler testbed ~rmems plane in
  guarded ~workload:"quickstart" ~seed ~plane ~timeseries testbed
    (fun converged detail ->
      let names0 = clerk_for rmem0 in
      let names1 = clerk_for rmem1 in
      let space1 = Cluster.Node.new_address_space node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export names1 ~space:space1 ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"shared.buffer" ()
      in
      let hint = Cluster.Node.addr node1 in
      let desc =
        retrying (fun () -> Names.Api.import ~hint names0 "shared.buffer")
      in
      let policy =
        Rmem.Recovery.with_revalidate (campaign_policy ())
          (Names.Api.revalidator ~hint names0 "shared.buffer")
      in
      let message = Bytes.of_string "hello, remote memory" in
      Rmem.Remote_memory.write rmem0 ~policy desc ~off:0 message;
      let space0 = Cluster.Node.new_address_space node0 in
      let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096 in
      Rmem.Remote_memory.read_wait rmem0 ~policy desc ~soff:0
        ~count:(Bytes.length message) ~dst:buf ~doff:0 ();
      let echoed =
        Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length message)
      in
      (* Both CAS calls race the lost-reply ambiguity, so the authority
         is the memory word itself: the first CAS saw 0 and must have
         installed 42; the second saw 42 and must have left it alone. *)
      let (_ : int) =
        Rmem.Remote_memory.cas_wait rmem0 ~policy desc ~doff:1024
          ~old_value:0 ~new_value:42 ()
      in
      let (_ : int) =
        Rmem.Remote_memory.cas_wait rmem0 ~policy desc ~doff:1024
          ~old_value:0 ~new_value:99 ()
      in
      Rmem.Remote_memory.read_wait rmem0 ~policy desc ~soff:1024 ~count:4
        ~dst:buf ~doff:1024 ();
      let word = Cluster.Address_space.read_word space0 ~addr:1024 in
      let ok_bytes = Bytes.equal echoed message in
      let ok_word = word = 42 in
      converged := ok_bytes && ok_word;
      if not !converged then
        detail :=
          Printf.sprintf "echo=%b word=%d (want 42)" ok_bytes word)

(* ------------------------------------------------------------------ *)
(* name_service: batch export, imports, revoke/re-export recovery.     *)

let name_service ~plan ~seed ~sampler ~observe =
  let testbed = testbed ~observe 3 in
  let rmems =
    Array.init 3 (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let indexed = Array.to_list (Array.mapi (fun i r -> (i, r)) rmems) in
  let plane = Plane.create ~plan ~rmems:indexed ~seed testbed in
  let timeseries = sampler_for ~sampler testbed ~rmems:indexed plane in
  guarded ~workload:"name_service" ~seed ~plane ~timeseries testbed
    (fun converged detail ->
      let clerks = Array.map clerk_for rmems in
      let exporter = Cluster.Testbed.node testbed 2 in
      let hint = Cluster.Node.addr exporter in
      let space = Cluster.Node.new_address_space exporter in
      let shard_names =
        List.init 4 (fun i -> Printf.sprintf "service/db/shard-%02d" i)
      in
      let segments =
        List.mapi
          (fun i name ->
            ( name,
              Names.Api.export clerks.(2) ~space ~base:(i * 8192) ~len:8192
                ~rights:Rmem.Rights.all ~name () ))
          shard_names
      in
      List.iter
        (fun name ->
          let (_ : Rmem.Descriptor.t) =
            retrying (fun () -> Names.Api.import ~hint clerks.(0) name)
          in
          ())
        shard_names;
      let policy name =
        Rmem.Recovery.with_revalidate (campaign_policy ())
          (Names.Api.revalidator ~hint clerks.(0) name)
      in
      let name0 = "service/db/shard-00" in
      let stale =
        retrying (fun () -> Names.Api.import ~force:true ~hint clerks.(0) name0)
      in
      let payload = Bytes.of_string "shard zero, first generation" in
      Rmem.Remote_memory.write rmems.(0) ~policy:(policy name0) stale ~off:0
        payload;
      (* The exporter revokes and re-exports shard-00: a NEW segment id,
         so the stale descriptor is beyond revalidation (the revalidator
         correctly refuses to splice a different segment under it) and
         the client must re-import — the clerk-mediated recovery path. *)
      let (_, first) = List.hd segments in
      Names.Api.revoke clerks.(2) first;
      let (_ : Rmem.Segment.t) =
        Names.Api.export clerks.(2) ~space ~base:0 ~len:8192
          ~rights:Rmem.Rights.all ~name:name0 ()
      in
      let space0 =
        Cluster.Node.new_address_space (Cluster.Testbed.node testbed 0)
      in
      let buf =
        Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:8192
      in
      let stale_rejected =
        match
          Rmem.Remote_memory.read_wait rmems.(0) ~policy:(policy name0) stale
            ~soff:0 ~count:(Bytes.length payload) ~dst:buf ~doff:0 ()
        with
        | () -> false
        | exception (Rmem.Status.Timeout | Rmem.Status.Remote_error _) -> true
      in
      let fresh =
        retrying (fun () -> Names.Api.import ~force:true ~hint clerks.(0) name0)
      in
      Rmem.Remote_memory.read_wait rmems.(0) ~policy:(policy name0) fresh
        ~soff:0 ~count:(Bytes.length payload) ~dst:buf ~doff:0 ();
      let echoed =
        Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length payload)
      in
      (* The re-export covers the same server memory, so the first
         generation's payload is still there. *)
      let ok_bytes = Bytes.equal echoed payload in
      converged := stale_rejected && ok_bytes;
      if not !converged then
        detail :=
          Printf.sprintf "stale_rejected=%b echo=%b" stale_rejected ok_bytes)

(* ------------------------------------------------------------------ *)
(* producer_consumer: two producers fill disjoint slots, one CAS race,
   a polling consumer.                                                 *)

let producer_consumer ~plan ~seed ~sampler ~observe =
  let slots = 8 in
  let slot_base = 256 in
  let slot_bytes = 64 in
  let testbed = testbed ~observe 3 in
  let nodes = Array.init 3 (Cluster.Testbed.node testbed) in
  let rmems = Array.map Rmem.Remote_memory.attach nodes in
  let indexed = Array.to_list (Array.mapi (fun i r -> (i, r)) rmems) in
  let plane = Plane.create ~plan ~rmems:indexed ~seed testbed in
  let timeseries = sampler_for ~sampler testbed ~rmems:indexed plane in
  guarded ~workload:"producer_consumer" ~seed ~plane ~timeseries testbed
    (fun converged detail ->
      let clerks = Array.map clerk_for rmems in
      let ring_space = Cluster.Node.new_address_space nodes.(1) in
      let (_ : Rmem.Segment.t) =
        Names.Api.export clerks.(1) ~space:ring_space ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"pc.ring" ()
      in
      let hint = Cluster.Node.addr nodes.(1) in
      let producer idx (done_ : unit Sim.Ivar.t) =
        Cluster.Node.spawn nodes.(idx) (fun () ->
            let desc =
              retrying (fun () -> Names.Api.import ~hint clerks.(idx) "pc.ring")
            in
            let policy =
              Rmem.Recovery.with_revalidate (campaign_policy ())
                (Names.Api.revalidator ~hint clerks.(idx) "pc.ring")
            in
            (* Producer 0 owns even slots, producer 2 odd ones. *)
            let mine = if idx = 0 then 0 else 1 in
            for slot = 0 to slots - 1 do
              if slot mod 2 = mine then begin
                let item = Bytes.make slot_bytes '\000' in
                Bytes.set_int32_le item 0 (Int32.of_int (100 + slot));
                Rmem.Remote_memory.write rmems.(idx) ~policy desc
                  ~off:(slot_base + (slot * slot_bytes))
                  item
              end
            done;
            (* Race for the winner word; memory decides, not the
               (ambiguous under loss) return value. *)
            let (_ : int) =
              Rmem.Remote_memory.cas_wait rmems.(idx) ~policy desc ~doff:8
                ~old_value:0
                ~new_value:(500 + idx)
                ()
            in
            Sim.Ivar.fill done_ ())
      in
      let done0 = Sim.Ivar.create () in
      let done2 = Sim.Ivar.create () in
      producer 0 done0;
      producer 2 done2;
      (* The consumer polls its own memory: remote data arrives by pure
         data transfer, no control transfer to wait on. *)
      let engine = Cluster.Testbed.engine testbed in
      let deadline = Sim.Time.ms 500 in
      let slot_value slot =
        Cluster.Address_space.read_word ring_space
          ~addr:(slot_base + (slot * slot_bytes))
      in
      let all_present () =
        let ok = ref true in
        for slot = 0 to slots - 1 do
          if slot_value slot <> 100 + slot then ok := false
        done;
        !ok
      in
      let rec poll () =
        if all_present () && Sim.Ivar.is_full done0 && Sim.Ivar.is_full done2
        then true
        else if Sim.Time.(Sim.Engine.now engine > deadline) then false
        else begin
          Sim.Proc.wait (Sim.Time.us 100);
          poll ()
        end
      in
      let filled = poll () in
      let winner = Cluster.Address_space.read_word ring_space ~addr:8 in
      let ok_winner = winner = 500 || winner = 502 in
      converged := filled && ok_winner;
      if not !converged then
        detail := Printf.sprintf "filled=%b winner=%d" filled winner)

(* ------------------------------------------------------------------ *)
(* replica: anti-entropy convergence across a partition heal.          *)

let replica ~plan ~seed ~sampler ~observe =
  let testbed = testbed ~observe 3 in
  let nodes = Array.init 3 (Cluster.Testbed.node testbed) in
  let rmems = Array.map Rmem.Remote_memory.attach nodes in
  let indexed = Array.to_list (Array.mapi (fun i r -> (i, r)) rmems) in
  let plane = Plane.create ~plan ~rmems:indexed ~seed testbed in
  let timeseries = sampler_for ~sampler testbed ~rmems:indexed plane in
  guarded ~workload:"replica" ~seed ~plane ~timeseries testbed
    (fun converged detail ->
      let clerks = Array.map clerk_for rmems in
      let members = Array.map Replica.create clerks in
      Array.iteri
        (fun i member ->
          (* Anti-entropy remote-reads the whole replica — 19 reply
             bursts plus CPU queueing behind two other daemons — so the
             per-attempt timeout must be generous; pushes cut by the
             partition either give up (counted, repaired by
             anti-entropy) or succeed on a retry that lands after the
             heal. *)
          Replica.set_recovery member
            (Some
               (Rmem.Recovery.policy ~attempts:4 ~timeout:(Sim.Time.ms 10)
                  ~backoff:(Sim.Time.us 500) ()));
          Array.iteri
            (fun j peer_node ->
              if i <> j then
                retrying (fun () ->
                    Replica.join member ~peer:(Cluster.Node.addr peer_node)))
            nodes)
        members;
      let stops =
        Array.map
          (fun m -> Replica.start_anti_entropy_daemon m ~period:(Sim.Time.ms 5))
          members
      in
      let engine = Cluster.Testbed.engine testbed in
      Replica.set members.(0) "alpha" (Bytes.of_string "pre-partition");
      (* Writes land inside the partition window the CI plan opens at
         [10 ms, 30 ms): pushes toward the isolated member give up and
         are counted; anti-entropy repairs them after the heal. *)
      wait_until engine (Sim.Time.ms 12);
      Replica.set members.(0) "beta" (Bytes.of_string "from node 0");
      wait_until engine (Sim.Time.ms 16);
      Replica.set members.(1) "gamma" (Bytes.of_string "from node 1");
      wait_until engine (Sim.Time.ms 20);
      Replica.set members.(2) "delta" (Bytes.of_string "from node 2");
      wait_until engine (Sim.Time.ms 120);
      Array.iter (fun stop -> stop ()) stops;
      let agree key =
        let values =
          Array.to_list (Array.map (fun m -> Replica.get m key) members)
        in
        match values with
        | Some v :: rest ->
            List.for_all
              (function Some w -> Bytes.equal v w | None -> false)
              rest
        | _ -> false
      in
      let keys = [ "alpha"; "beta"; "gamma"; "delta" ] in
      let disagreeing = List.filter (fun k -> not (agree k)) keys in
      converged := disagreeing = [];
      if not !converged then
        detail :=
          Printf.sprintf "diverged keys: %s" (String.concat ", " disagreeing))

(* ------------------------------------------------------------------ *)
(* crash_restart: generation bump, Stale_generation, clerk re-import.  *)

let crash_restart ~plan ~seed ~sampler ~observe =
  (* The point of this workload is the crash; supply the canonical one
     if the caller's plan has none. *)
  let plan =
    if plan.Plan.crashes <> [] then plan
    else
      {
        plan with
        Plan.crashes =
          [
            {
              Plan.node = 1;
              at = Sim.Time.ms 5;
              restart_at = Some (Sim.Time.ms 8);
            };
          ];
      }
  in
  let testbed = testbed ~observe 2 in
  let node0 = Cluster.Testbed.node testbed 0 in
  let node1 = Cluster.Testbed.node testbed 1 in
  let rmem0 = Rmem.Remote_memory.attach node0 in
  let rmem1 = Rmem.Remote_memory.attach node1 in
  let clerk1 = ref None in
  let rmems = [ (0, rmem0); (1, rmem1) ] in
  let plane =
    Plane.create ~plan ~rmems
        (* The clerks' well-known bootstrap segments keep their
           generations across the restart, so probing keeps working. *)
      ~preserve:[ 0; 1; 2 ]
      ~on_restart:(fun n ->
        if n = 1 then Option.iter Names.Clerk.reannounce !clerk1)
      ~seed testbed
  in
  let timeseries = sampler_for ~sampler testbed ~rmems plane in
  guarded ~workload:"crash_restart" ~seed ~plane ~timeseries testbed
    (fun converged detail ->
      let names0 = clerk_for rmem0 in
      let names1 = clerk_for rmem1 in
      clerk1 := Some names1;
      let space1 = Cluster.Node.new_address_space node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export names1 ~space:space1 ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"store" ()
      in
      let hint = Cluster.Node.addr node1 in
      let desc = retrying (fun () -> Names.Api.import ~hint names0 "store") in
      let policy =
        Rmem.Recovery.with_revalidate (campaign_policy ())
          (Names.Api.revalidator ~hint names0 "store")
      in
      let payload = Bytes.of_string "written before the crash" in
      Rmem.Remote_memory.write rmem0 ~policy desc ~off:0 payload;
      let generation_before = Rmem.Descriptor.generation desc in
      let engine = Cluster.Testbed.engine testbed in
      (* Sit out the crash [5 ms] and restart [8 ms], then read through
         the now-stale descriptor: the first attempt draws
         Stale_generation, the revalidator re-imports through the name
         clerk (which the restart re-announced to), and the retry
         succeeds against the same server memory. *)
      wait_until engine (Sim.Time.ms 12);
      let space0 = Cluster.Node.new_address_space node0 in
      let buf = Rmem.Remote_memory.buffer ~space:space0 ~base:0 ~len:4096 in
      Rmem.Remote_memory.read_wait rmem0 ~policy desc ~soff:0
        ~count:(Bytes.length payload) ~dst:buf ~doff:0 ();
      let echoed =
        Cluster.Address_space.read space0 ~addr:0 ~len:(Bytes.length payload)
      in
      let generation_after = Rmem.Descriptor.generation desc in
      let ok_bytes = Bytes.equal echoed payload in
      let ok_generation =
        not (Rmem.Generation.equal generation_after generation_before)
      in
      converged := ok_bytes && ok_generation;
      if not !converged then
        detail :=
          Printf.sprintf "echo=%b generation %d -> %d" ok_bytes
            (Rmem.Generation.to_int generation_before)
            (Rmem.Generation.to_int generation_after))

(* ------------------------------------------------------------------ *)

let run ?(plan = Plan.none) ?sampler ?(observe = ignore) ~seed
    (workload : workload) =
  workload ~plan ~seed ~sampler ~observe

(* The canonical CI plans. *)

let loss_plan fraction =
  Plan.make ~link:(Plan.link_faults ~loss:fraction ()) ()

let chaos_plan fraction =
  Plan.make
    ~link:
      (Plan.link_faults ~loss:fraction ~corrupt:(fraction /. 2.)
         ~duplicate:(fraction /. 2.) ~jitter:fraction ())
    ()

let partition_plan () =
  Plan.make
    ~partitions:
      [
        {
          Plan.group = [ 2 ];
          windows =
            [ Plan.window ~from_:(Sim.Time.ms 10) ~until:(Sim.Time.ms 30) ];
        };
      ]
    ()

let crash_plan () =
  Plan.make
    ~crashes:
      [ { Plan.node = 1; at = Sim.Time.ms 5; restart_at = Some (Sim.Time.ms 8) } ]
    ()
