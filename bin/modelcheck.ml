(* rnet model — systematic same-instant schedule exploration of the
   example workloads, with DPOR + sleep sets + trace-equivalence
   hashing, and deterministic certificate replay.

     rnet model                                     # explore all
     rnet model -w torn_record
     rnet model -w cas_missing_release \
         --replay "0/3,0/2,0/3,1/2"                  # replay a cert
     rnet model --ci --budget 2000

   Without --ci any failing schedule fails the run; --ci asserts each
   workload's catalog expectation, as the --ci doc below states.  The
   seeded bugs are clean under FIFO, so invisible to racecheck's single
   schedule. *)

let main workload budget replay (m : Cli.mode) =
  let config = { Analysis.Explore.default_config with budget } in
  let items = Cli.select ~name:fst Catalog.model workload in
  match (replay, items) with
  | Some cert, [ (name, (e : Catalog.model)) ] ->
      Cli.report m ~tool:"modelcheck" ~key:"workload" name (fun () ->
          Catalog.replay_report name (Cli.replay ~config e.prepare cert))
  | Some _, _ -> Cli.usage "--replay needs a single --workload"
  | None, _ ->
      Cli.check m ~tool:"modelcheck" ~key:"workload" ~name:fst
        (Catalog.model_report ~config ~ci:m.ci)
        items

open Cmdliner

let budget =
  let doc = "Maximum number of schedules to execute per workload." in
  Arg.(
    value
    & opt int Analysis.Explore.default_config.budget
    & info [ "budget" ] ~docv:"N" ~doc)

let replay =
  let doc =
    "Replay one schedule certificate ($(b,index/count) pairs joined by \
     commas, or $(b,-) for the FIFO baseline) against a single \
     --workload and report its outcome."
  in
  Arg.(
    value & opt (some string) None & info [ "replay" ] ~docv:"CERT" ~doc)

let cmd =
  Cli.cmd "model" ~doc:"DPOR schedule explorer for the remote-memory workloads"
    ~ci:
      "Assert expectations: clean workloads explore clean, and each \
       seeded bug fails with its declared kind from a clean FIFO \
       baseline, its first certificate of that kind replaying to it."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to explore" (List.map fst Catalog.model)
      $ budget $ replay)
