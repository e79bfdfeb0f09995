(* rnet race — replay the example workloads under the analysis monitor
   and report data races and protocol findings.

     rnet race -w kv_store
     rnet race --ci        # assert expectations
     rnet race --json      # machine-readable report

   Without --ci any race or finding fails the run; with it, every
   workload must report races and lint findings exactly where its
   catalog entry expects them. *)

let main workload (m : Cli.mode) =
  Cli.check m ~tool:"racecheck" ~key:"workload" ~name:fst
    (Catalog.race_report ~ci:m.ci)
    (Cli.select ~name:fst Catalog.race workload)

let cmd =
  Cli.cmd "race"
    ~doc:"happens-before race detector for the remote-memory workloads"
    ~ci:
      "Assert per-workload expectations (clean workloads clean, seeded \
       races/findings present) instead of failing on any report."
    Cmdliner.Term.(const main $ Cli.workload (List.map fst Catalog.race))
