(* The fault plane and the recovery layer: heartbeat failure detection
   under injected loss, replica convergence across partition heals and
   crash/restarts with generation bumps, and the determinism/replay
   contract of seeded campaigns. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ms = Sim.Time.ms

let lossy_window ~from_ ~until =
  Faults.Plan.make
    ~link:
      (Faults.Plan.link_faults ~loss:1.0
         ~windows:[ Faults.Plan.window ~from_ ~until ]
         ())
    ()

(* ---------------- Heartbeat under loss ---------------- *)

(* A bounded loss window: strikes accumulate while probes are lost and
   the first successful probe after the heal resets them — Failed never
   fires. *)
let heartbeat_strikes_reset () =
  let d = Rig.duo () in
  let plan = lossy_window ~from_:(ms 10) ~until:(ms 16) in
  let (_ : Faults.Plane.t) = Faults.Plane.create ~plan ~seed:5 d.Rig.testbed in
  let failures = ref 0 in
  let strikes_in_window = ref 0 in
  let strikes_after_heal = ref (-1) in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let stop_publisher =
        Rmem.Heartbeat.publish d.Rig.rmem1 segment ~off:0 ~period:(ms 1)
      in
      let watcher =
        Rmem.Heartbeat.watch d.Rig.rmem0 desc ~soff:0 ~period:(ms 2)
          ~timeout:(ms 1) ~strikes_allowed:100
          ~on_failure:(fun () -> incr failures)
          ()
      in
      Sim.Proc.wait (ms 15);
      strikes_in_window := Rmem.Heartbeat.strikes watcher;
      Sim.Proc.wait (ms 15);
      strikes_after_heal := Rmem.Heartbeat.strikes watcher;
      check_bool "still alive" true
        (Rmem.Heartbeat.state watcher = Rmem.Heartbeat.Alive);
      Rmem.Heartbeat.stop watcher;
      stop_publisher ());
  check_bool "strikes accumulated during the loss window" true
    (!strikes_in_window > 0);
  check_int "strikes reset after the heal" 0 !strikes_after_heal;
  check_int "no failure declared" 0 !failures

(* Loss that never heals: strikes pass the budget, Failed fires exactly
   once, and the watcher stops probing. *)
let heartbeat_fails_once () =
  let d = Rig.duo () in
  let plan = lossy_window ~from_:(ms 10) ~until:(ms 1000) in
  let (_ : Faults.Plane.t) = Faults.Plane.create ~plan ~seed:5 d.Rig.testbed in
  let failures = ref 0 in
  let probes_at_failure = ref 0 in
  Rig.run d (fun () ->
      let segment, desc = Rig.shared_segment d in
      let stop_publisher =
        Rmem.Heartbeat.publish d.Rig.rmem1 segment ~off:0 ~period:(ms 1)
      in
      let watcher_box = ref None in
      let watcher =
        Rmem.Heartbeat.watch d.Rig.rmem0 desc ~soff:0 ~period:(ms 2)
          ~timeout:(ms 1) ~strikes_allowed:3
          ~on_failure:(fun () ->
            incr failures;
            Option.iter
              (fun w -> probes_at_failure := Rmem.Heartbeat.probes w)
              !watcher_box)
          ()
      in
      watcher_box := Some watcher;
      Sim.Proc.wait (ms 40);
      check_bool "failed" true
        (Rmem.Heartbeat.state watcher = Rmem.Heartbeat.Failed);
      check_int "watcher stopped probing after the failure"
        !probes_at_failure
        (Rmem.Heartbeat.probes watcher);
      stop_publisher ());
  check_int "failure declared exactly once" 1 !failures

(* ---------------- Replica convergence ---------------- *)

let outcome_ok (o : Faults.Campaign.outcome) =
  o.survived && o.converged

(* Partition heal, via the campaign: writes land while a member is cut
   off; pushes retry past the heal or are repaired by anti-entropy, and
   every member converges. *)
let replica_partition_heal () =
  let plan = Faults.Campaign.partition_plan () in
  let o = Faults.Campaign.run ~plan ~seed:2100 Faults.Campaign.replica in
  check_bool "survived and converged" true (outcome_ok o);
  check_bool "the partition actually cut frames" true (o.events > 0);
  check_bool "recovery did some work" true (o.retries > 0.)

(* Member crash/restart with a generation bump: pushes against the
   restarted member draw Stale_generation, revalidate through the name
   clerk (forced re-import) and land; all members converge. *)
let replica_crash_restart () =
  let testbed = Cluster.Testbed.create ~nodes:3 () in
  let nodes = Array.init 3 (Cluster.Testbed.node testbed) in
  let rmems = Array.map Rmem.Remote_memory.attach nodes in
  let clerk1 = ref None in
  let plan =
    Faults.Plan.make
      ~crashes:
        [ { Faults.Plan.node = 1; at = ms 20; restart_at = Some (ms 25) } ]
      ()
  in
  let plane =
    Faults.Plane.create ~plan
      ~rmems:(Array.to_list (Array.mapi (fun i r -> (i, r)) rmems))
      ~preserve:[ 0; 1; 2 ]
      ~on_restart:(fun n ->
        if n = 1 then Option.iter Names.Clerk.reannounce !clerk1)
      ~seed:7 testbed
  in
  let agreed = ref false in
  Cluster.Testbed.run testbed (fun () ->
      let clerks =
        Array.map
          (fun rmem ->
            let clerk = Names.Clerk.create rmem in
            Names.Clerk.serve_lookup_requests clerk;
            Names.Clerk.set_probe_timeout clerk (Some (ms 2));
            clerk)
          rmems
      in
      clerk1 := Some clerks.(1);
      let members = Array.map Replica.create clerks in
      Array.iteri
        (fun i member ->
          Replica.set_recovery member
            (Some
               (Rmem.Recovery.policy ~attempts:4 ~timeout:(ms 10)
                  ~backoff:(Sim.Time.us 500) ()));
          Array.iteri
            (fun j peer ->
              if i <> j then
                Replica.join member ~peer:(Cluster.Node.addr peer))
            nodes)
        members;
      let stops =
        Array.map
          (fun m -> Replica.start_anti_entropy_daemon m ~period:(ms 5))
          members
      in
      Replica.set members.(0) "alpha" (Bytes.of_string "before the crash");
      (* Past the crash [20 ms] and restart [25 ms]: member 1's replica
         segment now carries a fresh generation, so this push draws
         Stale_generation and must heal through the clerk. *)
      let engine = Cluster.Testbed.engine testbed in
      let wait_until time =
        let now = Sim.Engine.now engine in
        if Sim.Time.(now < time) then Sim.Proc.wait (Sim.Time.diff time now)
      in
      wait_until (ms 30);
      Replica.set members.(0) "omega" (Bytes.of_string "after the restart");
      wait_until (ms 90);
      Array.iter (fun stop -> stop ()) stops;
      let agree key =
        match Array.map (fun m -> Replica.get m key) members with
        | [| Some a; Some b; Some c |] -> Bytes.equal a b && Bytes.equal a c
        | _ -> false
      in
      agreed := agree "alpha" && agree "omega");
  check_bool "all members agree after the crash/restart" true !agreed;
  let registry = Faults.Plane.registry plane in
  check_bool "crash and restart were injected" true
    (Obs.Registry.counter registry "faults.crashes" = 1.
    && Obs.Registry.counter registry "faults.restarts" = 1.);
  check_bool "staleness healed through revalidation" true
    (Obs.Registry.counter registry "rmem.revalidations" >= 1.)

(* ---------------- The determinism/replay contract ---------------- *)

let campaigns_replay_identically () =
  let plan = Faults.Campaign.chaos_plan 0.10 in
  List.iter
    (fun (workload, run) ->
      let a = Faults.Campaign.run ~plan ~seed:42 run in
      let b = Faults.Campaign.run ~plan ~seed:42 run in
      check_bool (workload ^ " converges under chaos") true (outcome_ok a);
      check_int (workload ^ " replays the event count") a.events b.events;
      check_bool (workload ^ " replays the digest") true (a.digest = b.digest))
    [
      ("quickstart", Catalog.Body.(campaign quickstart));
      ("name_service", Catalog.Body.(campaign name_service));
      ("replica", Faults.Campaign.replica);
    ];
  let a = Faults.Campaign.run ~plan ~seed:42 Faults.Campaign.replica in
  let c = Faults.Campaign.run ~plan ~seed:43 Faults.Campaign.replica in
  check_bool "different seeds draw different fault sequences" true
    (a.digest <> c.digest)

(* With the empty plan the plane injects nothing: the event log is
   empty whatever the seed — the bit-identical-when-disabled contract
   at the campaign level. *)
let empty_plan_is_inert () =
  let quickstart = Catalog.Body.(campaign quickstart) in
  let a = Faults.Campaign.run ~seed:1 quickstart in
  let b = Faults.Campaign.run ~seed:99 quickstart in
  check_bool "converges" true (outcome_ok a && outcome_ok b);
  check_int "no faults, any seed" 0 (a.events + b.events);
  check_bool "empty digests agree" true (a.digest = b.digest)

let plan_validation () =
  let raises f =
    match f () with
    | (_ : Faults.Plan.t) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "probability out of range" true
    (raises (fun () ->
         Faults.Plan.make ~link:(Faults.Plan.link_faults ~loss:1.5 ()) ()));
  check_bool "partition without windows" true
    (raises (fun () ->
         Faults.Plan.make
           ~partitions:[ { Faults.Plan.group = [ 1 ]; windows = [] } ]
           ()));
  check_bool "restart before crash" true
    (raises (fun () ->
         Faults.Plan.make
           ~crashes:
             [ { Faults.Plan.node = 0; at = ms 10; restart_at = Some (ms 5) } ]
           ()))

let suite =
  [
    Alcotest.test_case "heartbeat: strikes accumulate and reset" `Quick
      heartbeat_strikes_reset;
    Alcotest.test_case "heartbeat: Failed fires exactly once" `Quick
      heartbeat_fails_once;
    Alcotest.test_case "replica: partition heal converges" `Quick
      replica_partition_heal;
    Alcotest.test_case "replica: crash/restart generation bump heals" `Quick
      replica_crash_restart;
    Alcotest.test_case "campaigns replay identically" `Quick
      campaigns_replay_identically;
    Alcotest.test_case "empty plan is inert" `Quick empty_plan_is_inert;
    Alcotest.test_case "plan validation" `Quick plan_validation;
  ]
