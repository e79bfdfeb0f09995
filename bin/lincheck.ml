(* rnet lin — linearizability (and per-cell sequential-consistency)
   checking of the operation histories the monitor captures.

     rnet lin                                    # everything, FIFO
     rnet lin -w kv_store
     rnet lin --sc                               # SC-fallback mode
     rnet lin -w cas_double_apply --explore
     rnet lin -w cas_double_apply \
         --replay "0/4,0/3,0/2,0/3,0/2,0/2,0/2,1/2,0/2"
     rnet lin --ci --json

   Histories are the workload catalog's lin view: FIFO runs of the
   example workloads and data structures, and the fault-free recovery
   campaigns observed through the campaign's testbed observer.  Every
   history must be linearizable.  An exploration expects the workload's
   schedules to hold a non-linearizable one, with a certificate that
   replays to it; --ci over every history also explores every seeded
   linearizability bug, as the --ci doc below states. *)

let kind = "linearizability"

(* The seeded bugs whose declared failure is a linearizability one. *)
let seeded =
  List.filter
    (fun (_, (e : Catalog.model)) -> e.expect = Catalog.Fails kind)
    Catalog.model

let explore (m : Cli.mode) items =
  Cli.check m ~tool:"lincheck" ~key:"workload" ~name:fst
    (fun (name, (e : Catalog.model)) ->
      Catalog.model_report ~ci:true (name, { e with expect = Fails kind }))
    items

let main workload sc explore_flag replay (m : Cli.mode) =
  let mode =
    if sc then Analysis.Linearize.Sequential
    else Analysis.Linearize.Linearizable
  in
  match replay with
  | Some cert -> (
      match List.assoc_opt workload Catalog.model with
      | Some e ->
          Cli.report m ~tool:"lincheck" ~key:"workload" workload (fun () ->
              Catalog.replay_report workload (Cli.replay e.prepare cert))
      | None ->
          Cli.usage "--replay needs -w naming one of: %s"
            (String.concat ", " (List.map fst Catalog.model)))
  | None when explore_flag ->
      explore m
        (if workload = "all" then seeded
         else Cli.select ~name:fst Catalog.model workload)
  | None ->
      let histories =
        Cli.check m ~tool:"lincheck" ~key:"workload" ~name:fst
          (Catalog.lin_report ~mode)
          (Cli.select ~name:fst Catalog.lin workload)
      in
      (* Checking the full set also requires the seeded schedule bugs to
         be caught with replayable certificates. *)
      let explored = (not m.ci) || workload <> "all" || explore m seeded in
      histories && explored

open Cmdliner

let sc =
  let doc =
    "Check per-cell sequential consistency (program order only) instead \
     of linearizability. Per-cell SC is a necessary condition for \
     whole-history SC, not sufficient — SC does not compose."
  in
  Arg.(value & flag & info [ "sc" ] ~doc)

let explore_flag =
  let doc =
    "Explore the $(b,-w) workload's schedule space (by default, every \
     seeded linearizability bug's) and report the non-linearizable \
     schedules; exits 1 if none is found or the first certificate does \
     not replay, 2 if the workload is not explorable."
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
       history is linearizable, and exploration catches every seeded \
       linearizability bug with a replayable certificate."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to check" (List.map fst Catalog.lin)
      $ sc $ explore_flag $ replay)
