(* Recovery campaigns: end-to-end workload bodies run under a fault
   plan, each returning an explicit convergence verdict on final state.

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
  (* Fabric aggregates over the switches, so one SLO spec line covers
     every topology: a mesh, as every campaign builds, reads 0 — the
     clean gate an author means, not a missing source. *)
  let switches = Atm.Network.switches net in
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

(* The policy for the data operations on [name]'s segment: retry, and
   re-import the name on a stale descriptor. *)
let policy clerk ~hint name =
  Rmem.Recovery.with_revalidate (campaign_policy ())
    (Names.Api.revalidator ~hint clerk name)

(* A name clerk serving lookups, whose probes give up after a bounded
   wait so [retrying] can reissue them. *)
let clerk_for rmem =
  let clerk = Names.Clerk.create rmem in
  Names.Clerk.serve_lookup_requests clerk;
  Names.Clerk.set_probe_timeout clerk (Some (Sim.Time.ms 2));
  clerk

type hooks = {
  clerk : Rmem.Remote_memory.t -> Names.Clerk.t;
  retry : 'a. (unit -> 'a) -> 'a;
  policy :
    Names.Clerk.t -> hint:Atm.Addr.t -> string -> Rmem.Recovery.policy option;
  timeout : Sim.Time.t option;
}

let hooks =
  {
    clerk = clerk_for;
    retry = (fun f -> retrying f);
    policy = (fun clerk ~hint name -> Some (policy clerk ~hint name));
    timeout = None;
  }

let wait_until engine time =
  let now = Sim.Engine.now engine in
  if Sim.Time.(now < time) then Sim.Proc.wait (Sim.Time.diff time now)

(* The harness: a fresh [nodes]-node testbed, one endpoint per node,
   the fault plane and the sampler, then the body run to quiescence.
   The observer gets the testbed before any endpoint attaches, so an
   analysis tool can subscribe to its nodes without this library
   depending on it (the dependency points analysis -> faults, not
   back).  The two failure modes a fault plan can force — a deadlocked
   wait or an escaped status — become a non-survival verdict instead of
   a crash of the harness. *)
let harness ?preserve ?on_restart workload ~nodes body ~plan ~seed ~sampler
    ~observe =
  let testbed = Cluster.Testbed.create ~nodes () in
  observe testbed;
  let rmems =
    Array.init nodes (fun i ->
        Rmem.Remote_memory.attach (Cluster.Testbed.node testbed i))
  in
  let indexed = Array.to_list (Array.mapi (fun i r -> (i, r)) rmems) in
  let plane =
    Plane.create ~plan ~rmems:indexed ?preserve ?on_restart ~seed testbed
  in
  let timeseries = sampler_for ~sampler testbed ~rmems:indexed plane in
  let survived, verdict =
    match Cluster.Testbed.run testbed (fun () -> body testbed rmems) with
    | verdict -> (true, verdict)
    | exception Sim.Engine.Deadlock _ -> (false, Error "deadlock")
    | exception exn -> (false, Error (Printexc.to_string exn))
  in
  let registry = Plane.registry plane in
  let c name = Obs.Registry.counter registry name in
  {
    workload;
    seed;
    survived;
    converged = Result.is_ok verdict;
    detail = (match verdict with Ok () -> "" | Error detail -> detail);
    digest = Plane.digest plane;
    events = Plane.event_count plane;
    retries = c "rmem.retries";
    recovered = c "rmem.recovered";
    revalidations = c "rmem.revalidations";
    gave_up = c "rmem.gave_up";
    counters = Obs.Registry.counters registry;
    registry;
    timeseries;
    engine_events = Sim.Engine.events_fired (Cluster.Testbed.engine testbed);
  }

(* The export drops [?preserve] and [?on_restart]: only crash_restart,
   below, passes them, and the export gate rejects an exported optional
   argument no other compilation unit passes. *)
let workload name ~nodes body = harness name ~nodes body

(* ------------------------------------------------------------------ *)
(* producer_consumer: two producers fill disjoint slots, one CAS race,
   a polling consumer.                                                 *)

let producer_consumer =
  let slots = 8 in
  let slot_base = 256 in
  let slot_bytes = 64 in
  workload "producer_consumer" ~nodes:3 (fun testbed rmems ->
      let nodes = Array.init 3 (Cluster.Testbed.node testbed) in
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
            let policy = policy clerks.(idx) ~hint "pc.ring" in
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
      if filled && (winner = 500 || winner = 502) then Ok ()
      else Error (Printf.sprintf "filled=%b winner=%d" filled winner))

(* ------------------------------------------------------------------ *)
(* replica: anti-entropy convergence across a partition heal.          *)

let replica =
  workload "replica" ~nodes:3 (fun testbed rmems ->
      let nodes = Array.init 3 (Cluster.Testbed.node testbed) in
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
      match List.filter (fun k -> not (agree k)) keys with
      | [] -> Ok ()
      | disagreeing ->
          Error
            (Printf.sprintf "diverged keys: %s"
               (String.concat ", " disagreeing)))

(* ------------------------------------------------------------------ *)
(* crash_restart: generation bump, Stale_generation, clerk re-import.  *)

let crash_plan () =
  Plan.make
    ~crashes:
      [
        { Plan.node = 1; at = Sim.Time.ms 5; restart_at = Some (Sim.Time.ms 8) };
      ]
    ()

let crash_restart ~plan =
  (* The point of this workload is the crash; supply the canonical one
     if the caller's plan has none. *)
  let plan =
    if plan.Plan.crashes <> [] then plan
    else { plan with Plan.crashes = (crash_plan ()).Plan.crashes }
  in
  let clerk1 = ref None in
  harness "crash_restart" ~nodes:2
    (* The clerks' well-known bootstrap segments keep their generations
       across the restart, so probing keeps working. *)
    ~preserve:[ 0; 1; 2 ]
    ~on_restart:(fun n ->
      if n = 1 then Option.iter Names.Clerk.reannounce !clerk1)
    (fun testbed rmems ->
      let node0 = Cluster.Testbed.node testbed 0 in
      let node1 = Cluster.Testbed.node testbed 1 in
      let rmem0 = rmems.(0) in
      let names0 = clerk_for rmem0 in
      let names1 = clerk_for rmems.(1) in
      clerk1 := Some names1;
      let space1 = Cluster.Node.new_address_space node1 in
      let (_ : Rmem.Segment.t) =
        Names.Api.export names1 ~space:space1 ~base:0 ~len:4096
          ~rights:Rmem.Rights.all ~name:"store" ()
      in
      let hint = Cluster.Node.addr node1 in
      let desc = retrying (fun () -> Names.Api.import ~hint names0 "store") in
      let policy = policy names0 ~hint "store" in
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
      let bumped =
        not (Rmem.Generation.equal generation_after generation_before)
      in
      if ok_bytes && bumped then Ok ()
      else
        Error
          (Printf.sprintf "echo=%b generation %d -> %d" ok_bytes
             (Rmem.Generation.to_int generation_before)
             (Rmem.Generation.to_int generation_after)))
    ~plan

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
