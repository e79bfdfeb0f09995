(* Execution coverage report: adds up the counts that the processes of
   an instrumented run dumped into DIR (scripts/coverage/coverage_rt.ml),
   then prints one line per point that no process executed:

     FILE:LINE: BINDING KIND never runs

   A point is keyed FILE:BINDING:KIND, as scripts/deadcode keys its
   sites; BINDING is the top-level binding, dotted through the modules
   that hold it.  A point whose expression only raises is exempt by
   rule.  Every other unhit point must be matched by an entry of
   [allow] below: a key prefix and why the point is kept although no
   run reaches it.  An entry that matches no unhit point is stale and
   fails too.  The table may only shrink: it fails when it holds more
   entries than [max_allow], a ceiling that a change that deletes
   entries lowers too.  The last lines count points per library.

   Usage: report.exe DIR *)

let allow =
  [
    (* bin/: usage errors, printers and failure verdicts of the CLI. *)
    ("bin/cli.ml:replay:", "usage error: a certificate the workload rejects");
    ("bin/cli.ml:report:", "an item whose report raises: every report returns");
    ("bin/nfstrace.ml:describe_op:", "ops absent from the events the dump shows");
    ("bin/obsreport.ml:gauge:", "a gauge never sampled: campaigns sample every gauge");
    ("bin/obsreport.ml:main:", "usage error: an SLO spec that does not parse");
    ("bin/tracer.ml:report:", "failure verdict: an invalid span tree or a failed body");
    (* Checker and body failure verdicts: they fire on a run that breaks
       its property, and the seeded bugs break others. *)
    ("lib/analysis/explore.ml:canonical_hash:", "runs that raised or ran off the event bound");
    ("lib/analysis/explore.ml:classify:", "runs that raised, diverged or raced anew");
    ("lib/analysis/explore.ml:confirm:", "failure verdict: a certificate that does not confirm");
    ("lib/analysis/explore.ml:describe_failure:", "failure kinds no seeded bug has");
    ("lib/analysis/explore.ml:execute:", "a run that raises or passes the event bound");
    ("lib/analysis/explore.ml:explore:", "a budget that runs out");
    ("lib/analysis/explore.ml:failure_kind:", "failure kinds no seeded bug has");
    ("lib/analysis/explore.ml:take:", "a prefix longer than the schedule");
    ("lib/analysis/linearize.ml:check:", "a history past the cell budget");
    ("lib/analysis/linearize.ml:describe:", "the pass text: reports describe failures only");
    ("lib/analysis/linearize.ml:minimize:", "a witness that stops violating");
    ("lib/analysis/linearize.ml:step:", "an unknown value in a history");
    ("lib/analysis/race.ml:describe:", "a race new under exploration");
    ("lib/analysis/report.ml:emit:", "failure verdict: emitted JSON that does not parse");
    ("lib/analysis/scenarios.ml:cas_double_apply:", "failure verdicts: a scenario whose invariant breaks");
    ("lib/analysis/scenarios.ml:file_service_with:", "failure verdicts: a scenario whose invariant breaks");
    ("lib/analysis/scenarios.ml:kv_store:", "failure verdicts: a scenario whose invariant breaks");
    ("lib/analysis/scenarios.ml:producer_consumer:", "failure verdicts: a scenario whose invariant breaks");
    ("lib/catalog/body.ml:file_service_body:", "failure verdicts: a body whose convergence check fails");
    ("lib/catalog/body.ml:main:", "failure verdicts: a body whose convergence check fails");
    ("lib/catalog/body.ml:name_service_body:", "failure verdicts: a body whose convergence check fails");
    ("lib/catalog/body.ml:producer_consumer_body:", "failure verdicts: a body whose convergence check fails");
    ("lib/catalog/body.ml:quickstart_body:", "failure verdicts: a body whose convergence check fails");
    ("lib/catalog/catalog.ml:campaign_monitor:", "failure verdict: a campaign that does not converge");
    ("lib/catalog/catalog.ml:confirmation:", "failure verdict: a certificate that does not confirm");
    ("lib/catalog/catalog.ml:lin_report:", "failure verdict: a history that is not linearizable");
    ("lib/faults/campaign.ml:crash_restart:", "failure verdict: a crash that does not recover");
    ("lib/faults/campaign.ml:harness:", "failure verdict: a campaign that deadlocks");
    ("lib/faults/campaign.ml:producer_consumer:", "failure verdict: a ring that never fills");
    ("lib/faults/campaign.ml:replica:", "failure verdict: replicas that disagree");
    ("lib/obs/trace.ml:validate:", "failure verdict: orphans and crossed traces, which no tracer records");
    (* Values no recorded run produces. *)
    ("lib/analysis/monitor.ml:on_delivery:", "a delivery with no recorded send");
    ("lib/analysis/static/pipesafe.ml:classify:", "a segment no manifest names");
    ("lib/analysis/static/verify.ml:check_rights:", "program shapes no declared program has");
    ("lib/faults/campaign.ml:wire_gauges:", "switch aggregates: campaigns build meshes, with no switches");
    ("lib/nameserver/reconciler.ml:shard_id_of_bucket:", "used by the fallback split and by bench/suite");
    (* Guards against input that no peer in the simulation sends. *)
    ("lib/dds/hashtable.ml:serve:", "a malformed RPC request");
    ("lib/dds/queue.ml:serve:", "a malformed RPC request");
    ("lib/dds/register.ml:serve:", "a malformed RPC request, and a cell another writer holds");
    ("lib/dds/hashtable.ml:rpc_op:", "a short RPC reply");
    ("lib/dds/queue.ml:rpc_op:", "a short RPC reply");
    ("lib/nameserver/registry.ml:well_formed:", "a live slot with an empty name");
    ("lib/replica/replica.ml:decode_entry:", "a key of full length, and a torn length word");
    ("lib/rpc/transport.ml:handle_frame:", "a reply after its call gave up");
    ("lib/rpc/transport.ml:alloc_xid:", "an xid wrap");
    (* Paths that need a fault, a race or a state the runs do not make. *)
    ("lib/core/recovery.ml:classify:", "a terminal status under a policy");
    ("lib/core/remote_memory.ml:burst_rejection:", "a burst into an inhibited or refusing segment");
    ("lib/core/remote_memory.ml:free_reqid:", "a request-id wrap with the next id in flight");
    ("lib/core/remote_memory.ml:cas_received:", "a CAS that a segment refuses, and a CAS notification");
    ("lib/core/remote_memory.ml:reply_received:", "a READ reply on a CAS request id");
    ("lib/core/remote_memory.ml:burst_received:", "an empty or refused burst");
    ("lib/core/remote_memory.ml:run_policy:", "a terminal status under a policy, and a traced recovery");
    ("lib/core/remote_memory.ml:serve_status:", "a request to a revoked, short or unpinned segment");
    ("lib/core/remote_memory.ml:verify_written:", "a fenced verify of a policied write");
    ("lib/dds/call.ml:attempt:", "an RPC that exhausts its attempts");
    ("lib/dds/hashtable.ml:dx_delete:", "a delete whose CAS loses to a live key");
    ("lib/dds/queue.ml:await_deposit:", "a dequeue that reads its slot before the deposit lands");
    ("lib/dds/register.ml:dx_set:", "a retry that finds its own claim, after a lost CAS reply");
    ("lib/dds/register.ml:rpc:", "an RPC to a replica that times out");
    ("lib/dds/register.ml:rpc_collect:", "fewer than a majority of replicas answering");
    ("lib/dds/register.ml:rpc_set:", "a replica that times out, or a busy cell");
    ("lib/dfs/clerk.ml:dx_fetch:", "a statfs area the server has not published");
    ("lib/nameserver/api.ml:revalidator:", "a revalidation of a name since deleted");
    ("lib/nameserver/clerk.ml:reannounce:", "an export whose name is still registered");
    ("lib/nameserver/reconciler.ml:merge:", "a merge with under two shards, or a later pair lighter than the first");
    ("lib/nameserver/reconciler.ml:rebalance_once:", "no load, or a skew under threshold");
    ("lib/nameserver/reconciler.ml:register:", "a bucket no shard covers: the map is total");
    ("lib/nameserver/reconciler.ml:register_request:", "a registration that does not decode");
    ("lib/nameserver/reconciler.ml:retire:", "a moved record no longer in the source mirror");
    ("lib/nameserver/reconciler.ml:split:", "an unknown shard, or one bucket wide");
    ("lib/nameserver/shard_clerk.ml:attempt:", "a stale miss with no forward to patch from");
    ("lib/nameserver/shard_clerk.ml:fetch_map:", "a torn map image");
    ("lib/nameserver/shard_clerk.ml:patch_map:", "a forward that splits a shard in three, or overflows the map");
    ("lib/nameserver/shard_clerk.ml:revalidate:", "a refresh: only a host restart keeps a shard in the map under a new generation, and the map never learns it; a map fetch that fails");
    ("lib/replica/replica.ml:set:", "a peer write that gives up under a policy");
    ("lib/replica/replica.ml:start_anti_entropy_daemon:", "a replica with no peers");
    (* NFS cases no run makes: no workload has a symlink or a hard link. *)
    ("lib/dfs/clerk.ml:install_local:", "a readlink result cached");
    ("lib/dfs/clerk.ml:local_lookup:", "a readlink served from the local cache");
    ("lib/dfs/server.ml:push_block:", "a block the cache dropped, and a block with two subscribers");
    (* Empty inputs and printers. *)
    ("lib/experiments/dds_bench.ml:report:", "a leg with no measured point");
    ("lib/experiments/pipeline_bench.ml:finish:", "a leg that takes no time");
    ("lib/experiments/probe_policy.ml:run:", "probing winning at every chain length");
    ("lib/experiments/shard_bench.ml:run_campaign:", "a lost or stale name, a skew under threshold, no name moved");
    ("lib/obs/trace.ml:frame_delivered:", "a frame with no span context");
    ("lib/obs/trace.ml:link_hop:", "a hop with no wire span");
    ("lib/obs/trace.ml:observe_root:", "a non-numeric segment argument");
    ("lib/obs/trace.ml:root_close:", "a root already closed");
    ("lib/obs/trace.ml:serve_begin:", "a serve with no span context");
    ("lib/sim/proc.ml:spent:", "effects of another handler, sleep-queue states, an exception in a nested resume")
  ]

let max_allow = 95

type point = { file : string; binding : string; kind : string; line : int; exempt : bool }

let key p = String.concat ":" [ p.file; p.binding; p.kind ]
let covers (prefix, _) p = String.starts_with ~prefix (key p)

let read dir =
  let points = Hashtbl.create 8192 in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".cov" then
        In_channel.with_open_text (Filename.concat dir f) (fun ic ->
            List.iter
              (fun l ->
                match String.split_on_char '\t' l with
                | [ file; i; binding; kind; line; exempt; n ] ->
                    let id = (file, int_of_string i) in
                    let p, m =
                      match Hashtbl.find_opt points id with
                      | Some pm -> pm
                      | None ->
                          ( { file; binding; kind; line = int_of_string line; exempt = exempt = "1" },
                            0 )
                    in
                    Hashtbl.replace points id (p, m + int_of_string n)
                | _ -> failwith ("malformed coverage line: " ^ l))
              (In_channel.input_lines ic)))
    (Sys.readdir dir);
  Hashtbl.fold (fun _ pm acc -> pm :: acc) points []
  |> List.sort (fun (a, _) (b, _) -> compare (a.file, a.line, a.kind) (b.file, b.line, b.kind))

let library p = Filename.dirname p.file

let () =
  let points = read Sys.argv.(1) in
  if points = [] then failwith "no coverage dumps: was the build instrumented?";
  let unhit = List.filter_map (fun (p, n) -> if n = 0 && not p.exempt then Some p else None) points in
  let allowed p = List.exists (fun e -> covers e p) allow in
  let bad = List.filter (fun p -> not (allowed p)) unhit in
  List.iter (fun p -> Printf.printf "%s:%d: %s %s never runs\n" p.file p.line p.binding p.kind) bad;
  let stale = List.filter (fun e -> not (List.exists (covers e) unhit)) allow in
  List.iter (fun (pre, _) -> Printf.printf "allow entry %s matches no unhit point\n" pre) stale;
  let libs = List.sort_uniq compare (List.map (fun (p, _) -> library p) points) in
  Printf.printf "%-24s %6s %6s %6s %6s\n" "library" "points" "unhit" "exempt" "allowed";
  let row name mine =
    let count f = List.length (List.filter f mine) in
    Printf.printf "%-24s %6d %6d %6d %6d\n" name (List.length mine)
      (count (fun (_, n) -> n = 0))
      (count (fun (p, n) -> n = 0 && p.exempt))
      (count (fun (p, n) -> n = 0 && (not p.exempt) && allowed p))
  in
  List.iter (fun l -> row l (List.filter (fun (p, _) -> library p = l) points)) libs;
  row "total" points;
  Printf.printf "coverage: %d unhit points uncovered, %d stale allow entries, %d allow entries\n"
    (List.length bad) (List.length stale) (List.length allow);
  if List.length allow > max_allow then
    Printf.printf "coverage: %d allow entries, above the ceiling of %d\n" (List.length allow)
      max_allow;
  if bad <> [] || stale <> [] || List.length allow > max_allow then exit 1
