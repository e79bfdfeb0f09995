(* rnet lin — linearizability (and per-cell sequential-consistency)
   checking of the operation histories the monitor captures.

     rnet lin                                    # everything, FIFO
     rnet lin -w kv_store
     rnet lin --sc                               # SC-fallback mode
     rnet lin -w cas_double_apply --explore
     rnet lin -w cas_double_apply \
         --replay "0/4,0/3,0/2,0/3,0/2,0/2,0/2,1/2,0/2"
     rnet lin --ci --json

   Sources of histories:

   - the example workloads ({!Analysis.Scenarios}), run under the
     default FIFO schedule;
   - the fault-free recovery-campaign workloads ({!Faults.Campaign}
     with the empty plan; crash_restart is excluded — restarts tear
     down endpoints mid-history), observed through the campaign's
     rmem probe;
   - the distributed data structures ({!Dds}: hashtable, queue, ABD
     register), each driven by clients in all three structurings at
     once, observed through the logical-operation hook.

   In --ci mode every FIFO history and every fault-free campaign
   history must be linearizable, and exploring the seeded workloads —
   cas_double_apply (the lost-reply double-apply) and
   dds_register_no_writeback (the ABD register whose read skips the
   write-back phase) — must surface non-linearizable schedules whose
   certificates replay to the same failure kind; neither bug is
   visible to any single-schedule checker. *)

let escape = Analysis.Report.json_escape

(* The campaign workloads whose fault-free histories are checked.
   crash_restart kills and reattaches endpoints, which orphans
   in-flight operations by design. *)
let campaign_workloads =
  [ "quickstart"; "name_service"; "producer_consumer"; "replica" ]

(* The distributed data structures ({!Dds}), each driven by clients in
   all three structurings at once with the logical-operation hook
   feeding the monitor. *)
let dds_workloads = [ "dds_hashtable"; "dds_queue"; "dds_register" ]

type source = Scenario | Campaign | Dds

let source_to_string = function
  | Scenario -> "scenario"
  | Campaign -> "campaign"
  | Dds -> "dds"

type check = {
  workload : string;
  source : source;
  mode : Analysis.Linearize.mode;
  verdict : Analysis.Linearize.verdict;
  detail : string;  (* non-verdict trouble, e.g. campaign divergence *)
}

let scenario_check ~mode name =
  let monitor = Analysis.Scenarios.run name in
  {
    workload = name;
    source = Scenario;
    mode;
    verdict = Analysis.Linearize.check ~mode (Analysis.Monitor.history monitor);
    detail = "";
  }

(* Run one campaign workload fault-free with a monitor subscribed to
   every endpoint through the campaign's rmem probe. *)
let campaign_check ~mode name =
  let monitor = ref None in
  Faults.Campaign.set_rmem_probe
    (Some
       (fun rmem ->
         let m =
           match !monitor with
           | Some m -> m
           | None ->
               let m =
                 Analysis.Monitor.create
                   (Cluster.Node.engine (Rmem.Remote_memory.node rmem))
               in
               monitor := Some m;
               m
         in
         Analysis.Monitor.attach_rmem m rmem));
  let outcome =
    Fun.protect
      ~finally:(fun () -> Faults.Campaign.set_rmem_probe None)
      (fun () -> Faults.Campaign.run ~seed:1 name)
  in
  let monitor =
    match !monitor with
    | Some m -> m
    | None -> failwith (name ^ ": campaign attached no endpoint")
  in
  {
    workload = name;
    source = Campaign;
    mode;
    verdict = Analysis.Linearize.check ~mode (Analysis.Monitor.history monitor);
    detail =
      (if outcome.Faults.Campaign.survived && outcome.Faults.Campaign.converged
       then ""
       else "campaign did not converge: " ^ outcome.Faults.Campaign.detail);
  }

(* ---------------- dds histories ---------------- *)

(* A fresh testbed with rmem + amsg on every node and a monitor
   subscribed to every endpoint; [body] receives the rig and the
   logical-operation hook and must run to quiescence. *)
let dds_rig n body =
  let testbed = Cluster.Testbed.create ~nodes:n () in
  let nodes = Array.init n (Cluster.Testbed.node testbed) in
  let rmems = Array.map Rmem.Remote_memory.attach nodes in
  let monitor = Analysis.Monitor.create (Cluster.Testbed.engine testbed) in
  Array.iter (Analysis.Monitor.attach_rmem monitor) rmems;
  let amsgs = Array.map Amsg.attach nodes in
  let hook = Analysis.Monitor.dds_hook monitor in
  Cluster.Testbed.run testbed (fun () ->
      body ~nodes ~rmems ~amsgs ~hook);
  monitor

let dds_join ~target counter =
  let rec join () =
    if !counter < target then begin
      Sim.Proc.wait (Sim.Time.ms 1);
      join ()
    end
  in
  join ()

(* Three clients — one per structuring — hammer a shared key and a
   private key of one server table. *)
let dds_hashtable () =
  dds_rig 4 (fun ~nodes ~rmems ~amsgs ~hook ->
      let s = Dds.Hashtable.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~slots:64 () in
      let done_ = ref 0 in
      for c = 1 to 3 do
        Cluster.Node.spawn nodes.(c) (fun () ->
            let t =
              Dds.Hashtable.client ~rmem:rmems.(c) ~amsg:amsgs.(c)
                ~kind:(List.nth Dds.Kind.all (c - 1))
                ~hook s
            in
            for i = 1 to 5 do
              Dds.Hashtable.insert t ~key:9l
                ~value:(Int32.of_int ((c * 10) + i));
              ignore (Dds.Hashtable.lookup t 9l);
              Dds.Hashtable.insert t ~key:(Int32.of_int (100 + c))
                ~value:(Int32.of_int i)
            done;
            incr done_)
      done;
      dds_join ~target:3 done_)

(* Two mixed-kind producers, one hybrid consumer draining everything. *)
let dds_queue () =
  dds_rig 4 (fun ~nodes ~rmems ~amsgs ~hook ->
      let s = Dds.Queue.server ~rmem:rmems.(0) ~amsg:amsgs.(0) ~capacity:64 () in
      let consumed = ref 0 in
      for p = 1 to 2 do
        Cluster.Node.spawn nodes.(p) (fun () ->
            let t =
              Dds.Queue.client ~rmem:rmems.(p) ~amsg:amsgs.(p)
                ~kind:(if p = 1 then Dds.Kind.Dx else Dds.Kind.Rpc)
                ~hook s
            in
            for i = 0 to 9 do
              ignore (Dds.Queue.enqueue t (Int32.of_int ((p * 100) + i)))
            done;
            Dds.Queue.flush t)
      done;
      Cluster.Node.spawn nodes.(3) (fun () ->
          let t =
            Dds.Queue.client ~rmem:rmems.(3) ~amsg:amsgs.(3)
              ~kind:Dds.Kind.Hybrid ~hook s
          in
          for _ = 1 to 20 do
            ignore (Dds.Queue.dequeue t);
            incr consumed
          done);
      dds_join ~target:20 consumed)

(* Three writer/reader clients — one per structuring — over one
   3-replica ABD register. *)
let dds_register () =
  dds_rig 6 (fun ~nodes ~rmems ~amsgs ~hook ->
      let reps =
        Array.init 3 (fun k ->
            Dds.Register.replica ~rmem:rmems.(k) ~amsg:amsgs.(k) ())
      in
      let done_ = ref 0 in
      List.iteri
        (fun i (c, kind) ->
          Cluster.Node.spawn nodes.(c) (fun () ->
              let t =
                Dds.Register.client ~rmem:rmems.(c) ~amsg:amsgs.(c) ~kind
                  ~rank:(i + 1) ~hook reps
              in
              for v = 1 to 4 do
                ignore (Dds.Register.write t (Int32.of_int ((c * 10) + v)));
                ignore (Dds.Register.read t)
              done;
              incr done_))
        [ (3, Dds.Kind.Dx); (4, Dds.Kind.Rpc); (5, Dds.Kind.Hybrid) ];
      dds_join ~target:3 done_)

let dds_check ~mode name =
  let monitor =
    match name with
    | "dds_hashtable" -> dds_hashtable ()
    | "dds_queue" -> dds_queue ()
    | "dds_register" -> dds_register ()
    | _ -> invalid_arg ("dds_check: " ^ name)
  in
  {
    workload = name;
    source = Dds;
    mode;
    verdict = Analysis.Linearize.check ~mode (Analysis.Monitor.history monitor);
    detail = "";
  }

let check_ok c =
  c.detail = ""
  && match c.verdict with Analysis.Linearize.Pass _ -> true | _ -> false

let verdict_stats = function
  | Analysis.Linearize.Pass stats -> stats
  | Analysis.Linearize.Fail { stats; _ } -> stats

let print_check c =
  let stats = verdict_stats c.verdict in
  Printf.printf "== %-22s (%s, %s): %s  [%d cell(s), %d event(s), %d state(s)%s]\n"
    c.workload (source_to_string c.source)
    (Analysis.Linearize.mode_to_string c.mode)
    (if check_ok c then "ok"
     else if c.detail <> "" then c.detail
     else Analysis.Linearize.describe c.verdict)
    stats.Analysis.Linearize.cells stats.Analysis.Linearize.events
    stats.Analysis.Linearize.explored
    (if stats.Analysis.Linearize.skipped > 0 then
       Printf.sprintf ", %d skipped" stats.Analysis.Linearize.skipped
     else "")

let witness_json events =
  events
  |> List.map (fun e ->
         Printf.sprintf "\"%s\"" (escape (Analysis.History.event_to_string e)))
  |> String.concat ","

let check_json c =
  let stats = verdict_stats c.verdict in
  let status, witness =
    match c.verdict with
    | Analysis.Linearize.Pass _ ->
        ((if c.detail = "" then "ok" else "error"), "")
    | Analysis.Linearize.Fail { witness; _ } -> ("violation", witness_json witness)
  in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"lincheck\",\"workload\":\"%s\",\"source\":\"%s\",\"mode\":\"%s\",\"status\":\"%s\",\"detail\":\"%s\",\"witness\":[%s],\"stats\":{\"cells\":%d,\"events\":%d,\"explored\":%d,\"skipped\":%d}}"
    Analysis.Report.schema_version (escape c.workload)
    (source_to_string c.source)
    (escape (Analysis.Linearize.mode_to_string c.mode))
    status
    (escape
       (if c.detail <> "" then c.detail
        else
          match c.verdict with
          | Analysis.Linearize.Pass _ -> ""
          | v -> Analysis.Linearize.describe v))
    witness stats.Analysis.Linearize.cells stats.Analysis.Linearize.events
    stats.Analysis.Linearize.explored stats.Analysis.Linearize.skipped

(* ---------------- exploration (the seeded bug) ---------------- *)

let explore_outcome_json (o : Analysis.Explore.outcome) =
  let kind, detail =
    match o.failure with
    | None -> ("ok", "")
    | Some f ->
        (Analysis.Explore.failure_kind f, Analysis.Explore.describe_failure f)
  in
  Printf.sprintf
    "{\"schema\":%d,\"tool\":\"lincheck\",\"schedule\":\"%s\",\"choice_points\":%d,\"status\":\"%s\",\"detail\":\"%s\"}"
    Analysis.Report.schema_version
    (escape (Analysis.Schedule.to_string o.schedule))
    o.choice_points (escape kind) (escape detail)

let print_explore_outcome ~label (o : Analysis.Explore.outcome) =
  let kind, detail =
    match o.failure with
    | None -> ("ok", "")
    | Some f ->
        (Analysis.Explore.failure_kind f, Analysis.Explore.describe_failure f)
  in
  Printf.printf "   %s: %s%s  [schedule %s]\n" label kind
    (if detail = "" then "" else " — " ^ detail)
    (Analysis.Schedule.to_string o.schedule)

let lin_failures (r : Analysis.Explore.result) =
  List.filter
    (fun (o : Analysis.Explore.outcome) ->
      match o.failure with
      | Some (Analysis.Explore.Non_linearizable _) -> true
      | _ -> false)
    r.failures

let run_explore name ~json ~out =
  let r = Analysis.Explore.explore name in
  let lin = lin_failures r in
  if json then
    List.iter
      (fun o -> Analysis.Report.emit ~tool:"lincheck" (explore_outcome_json o))
      lin
  else begin
    Printf.printf
      "== %s: %d schedule(s), %d distinct, %d non-linearizable\n" name
      r.stats.executed r.stats.distinct (List.length lin);
    List.iter (fun o -> print_explore_outcome ~label:"violation" o) lin
  end;
  (* The exploration contract: a linearizability failure exists and its
     certificate replays to the same kind. *)
  match lin with
  | [] ->
      Printf.fprintf out "   FAIL %s: no non-linearizable schedule found\n" name;
      false
  | (first : Analysis.Explore.outcome) :: _ -> (
      let replayed = Analysis.Explore.replay name first.schedule in
      match replayed.failure with
      | Some (Analysis.Explore.Non_linearizable _) -> true
      | _ ->
          Printf.fprintf out
            "   FAIL %s: certificate %s did not replay to a linearizability \
             failure\n"
            name
            (Analysis.Schedule.to_string first.schedule);
          false)

let run_replay name cert ~json =
  let schedule =
    try Analysis.Schedule.of_string cert
    with Invalid_argument msg -> Cli.usage "%s" msg
  in
  let outcome = Analysis.Explore.replay name schedule in
  if json then Analysis.Report.emit ~tool:"lincheck" (explore_outcome_json outcome)
  else print_explore_outcome ~label:(Printf.sprintf "replay %s" name) outcome;
  outcome.failure = None

(* ---------------- driver ---------------- *)

(* Every checkable history, tagged with its source: a name may be both
   a scenario and a campaign workload. *)
let histories =
  List.map (fun n -> (Scenario, n)) Analysis.Scenarios.checked
  @ List.map (fun n -> (Campaign, n)) campaign_workloads
  @ List.map (fun n -> (Dds, n)) dds_workloads

let check_history ~mode = function
  | Scenario, name -> scenario_check ~mode name
  | Campaign, name -> campaign_check ~mode name
  | Dds, name -> dds_check ~mode name

let run_histories (m : Cli.mode) ~mode workload =
  let checks =
    List.map (check_history ~mode) (Cli.select ~name:snd histories workload)
  in
  if m.json then
    List.iter
      (fun c -> Analysis.Report.emit ~tool:"lincheck" (check_json c))
      checks
  else List.iter print_check checks;
  let fifo_ok = List.for_all check_ok checks in
  if m.ci then
    (* Checking the full set also requires the seeded schedule bugs to
       be caught with replayable certificates: the lost-reply
       double-apply, and the dds register whose read skips the
       write-back phase. *)
    let explored_ok =
      workload <> "all"
      || Cli.run_all
           (run_explore ~json:m.json ~out:(Cli.diag m))
           [ "cas_double_apply"; "dds_register_no_writeback" ]
    in
    Cli.verdict m (fifo_ok && explored_ok)
      ~pass:"lincheck: all histories linearizable; seeded bugs caught"
      ~fail:"lincheck: expectation mismatch"
  else fifo_ok

let main workload sc explore replay (m : Cli.mode) =
  let mode =
    if sc then Analysis.Linearize.Sequential
    else Analysis.Linearize.Linearizable
  in
  match replay with
  | Some cert ->
      if List.mem workload Analysis.Scenarios.checked then
        run_replay workload cert ~json:m.json
      else
        Cli.usage "--replay needs -w naming one of: %s"
          (String.concat ", " Analysis.Scenarios.checked)
  | None when explore ->
      let name = if workload = "all" then "cas_double_apply" else workload in
      run_explore name ~json:m.json ~out:(Cli.diag m)
  | None -> run_histories m ~mode workload

open Cmdliner

let sc =
  let doc =
    "Check per-cell sequential consistency (program order only) instead \
     of linearizability. Per-cell SC is a necessary condition for \
     whole-history SC, not sufficient — SC does not compose."
  in
  Arg.(value & flag & info [ "sc" ] ~doc)

let explore =
  let doc =
    "Explore the workload's schedule space (default: cas_double_apply) \
     and report the non-linearizable schedules; exits 1 if none is \
     found or the first certificate does not replay."
  in
  Arg.(value & flag & info [ "explore" ] ~doc)

let replay =
  let doc =
    "Replay one schedule certificate ($(b,index/count) pairs joined by \
     commas, or $(b,-) for FIFO) against the $(b,-w) workload and \
     report its outcome."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"CERT" ~doc)

let cmd =
  Cli.cmd "lin" ~doc:"Linearizability checker for captured operation histories"
    ~ci:
      "Assert expectations: every FIFO, fault-free campaign and dds \
       history is linearizable, and exploration catches the seeded \
       cas_double_apply and dds_register_no_writeback bugs with \
       replayable certificates."
    Term.(
      const main
      $ Cli.workload
          ~doc:
            "Workload to check (a scenario, a campaign workload, a dds \
             workload, or $(b,all))."
          ()
      $ sc $ explore $ replay)
