(* rnet chaos — seeded fault-injection campaigns over the example
   workloads, with a replay-determinism check.

     rnet chaos                                     # default sweep
     rnet chaos -w replica --loss 0.10 --seed 7
     rnet chaos -w replica --partition
     rnet chaos -w crash_restart --crash --json
     rnet chaos --ci --json

   Every campaign is deterministic in (workload, plan, seed): each
   configuration runs twice and the two fault-event digests must be
   identical, and it must survive and converge.  --ci runs the selected
   workloads' legs of the canonical matrix (their catalog legs, each
   with a pinned seed; all of it is the @faults alias): each data
   workload under 0 / 1% / 10% loss, the replica store across a
   partition heal, and the crash/restart generation-bump recovery,
   whose Stale_generation -> revalidate -> recover chain must show. *)

let main workload seed loss chaos partition crash (m : Cli.mode) =
  let selected = Cli.select ~name:fst Catalog.campaigns workload in
  let legs =
    if m.ci then Catalog.chaos_matrix selected
    else
      let plan =
        let link =
          if chaos then (Faults.Campaign.chaos_plan loss).Faults.Plan.link
          else (Faults.Campaign.loss_plan loss).Faults.Plan.link
        in
        let partitions =
          if partition then
            (Faults.Campaign.partition_plan ()).Faults.Plan.partitions
          else []
        in
        let crashes =
          if crash then (Faults.Campaign.crash_plan ()).Faults.Plan.crashes
          else []
        in
        { Faults.Plan.link; partitions; crashes }
      in
      let leg = { Catalog.label = "adhoc"; plan; seed; chain = false } in
      List.map (fun (name, (c : Catalog.campaign)) -> (name, c.run, leg)) selected
  in
  Cli.check m ~tool:"chaoscheck" ~key:"workload"
    ~name:(fun (name, _, _) -> name)
    (fun (_, run, leg) -> Catalog.chaos_report leg run)
    legs

open Cmdliner

let loss =
  let doc = "Per-frame loss probability on every link." in
  Arg.(value & opt float 0.10 & info [ "loss" ] ~docv:"P" ~doc)

let chaos =
  let doc =
    "Add corruption, duplication and delay-jitter on top of the loss rate."
  in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let partition =
  let doc = "Add the canonical partition schedule (node 2 cut 10-30 ms)." in
  Arg.(value & flag & info [ "partition" ] ~doc)

let crash =
  let doc = "Add the canonical crash/restart schedule (node 1, 5/8 ms)." in
  Arg.(value & flag & info [ "crash" ] ~doc)

let cmd =
  Cli.cmd "chaos"
    ~doc:"seeded fault-injection campaigns with deterministic replay"
    ~ci:
      "Run the selected workloads' rows of the canonical matrix and fail \
       on any non-convergence or replay divergence."
    Term.(
      const main
      $ Cli.workload ~doc:"Workload to torment" (List.map fst Catalog.campaigns)
      $ Cli.seed 1 $ loss $ chaos $ partition $ crash)
