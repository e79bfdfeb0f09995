(* The campaign benches: each runs a full sweep, or its small
   golden-file configuration under --smoke, and prints it as a table or
   (--json) as its schema-versioned report; --ci exits 1 when a gate
   breaks.

     rnet shard --smoke --json    # sharded name service vs one registry
     rnet dds --structure queue   # DX vs RPC vs hybrid, one structure
     rnet pipeline --smoke --ci   # batched/windowed issue (the @bench gate)
     rnet pipeline --json > BENCH_PR5.json

   shard gates: sharded p99 lookup latency below the single-registry
   baseline, zero switch drops, a mid-campaign rebalance that
   converges, no lost or stale-served registrations.

   dds gates: every point completes its operations, and the contention
   crossover reproduces (DX beats RPC on the low-contention lookup-heavy
   leg, RPC or hybrid beats DX on the high-contention mutation-heavy
   leg) on at least two of the three structures — so a sweep restricted
   to one --structure cannot clear it, the forced-miss leg of
   @exitcodes.

   pipeline gates: unbatched 4 KB writes inside the Table-2 band,
   pipelined >= 1.5x unbatched, doorbell coalescing, windowed reads
   faster than serial. *)

open Cmdliner
module E = Experiments

let shard =
  let sweep seed ~smoke =
    if smoke then E.Shard_bench.smoke ~seed () else E.Shard_bench.run ~seed ()
  in
  Cli.bench "shard"
    ~doc:"scale-out sharded name service campaign over a Clos fabric"
    ~ci:"Fail (exit 1) when any latency/drop/convergence gate breaks."
    ~render:E.Shard_bench.render ~to_json:E.Shard_bench.to_json
    ~check:E.Shard_bench.check
    Term.(const sweep $ Cli.seed 9)

let dds =
  let structure =
    let doc =
      "Restrict the sweep to one structure (hashtable, queue or \
       register); unknown names exit 2."
    in
    Arg.(value & opt string "all" & info [ "structure" ] ~docv:"NAME" ~doc)
  in
  let sweep structure seed ~smoke =
    let structures =
      Cli.select ~what:"structure" ~name:Fun.id E.Dds_bench.structures
        structure
    in
    if smoke then E.Dds_bench.smoke ~seed ~structures ()
    else E.Dds_bench.run ~seed ~structures ()
  in
  Cli.bench "dds"
    ~doc:"distributed data-structure campaign: DX vs RPC vs hybrid"
    ~ci:"Fail (exit 1) when the crossover or a sanity gate breaks."
    ~render:E.Dds_bench.render ~to_json:E.Dds_bench.to_json
    ~check:E.Dds_bench.check
    Term.(const sweep $ structure $ Cli.seed 10)

let pipeline =
  let sweep ~smoke =
    if smoke then
      E.Pipeline_bench.run ~ops:32 ~windows:[ 1; 8 ] ~batches:[ 4096; 32768 ]
        ~payloads:[ 4096 ] ()
    else E.Pipeline_bench.run ()
  in
  Cli.bench "pipeline"
    ~doc:"batched/windowed issue engine vs the synchronous path"
    ~ci:"Fail (exit 1) when a throughput, coalescing or windowing gate breaks."
    ~render:E.Pipeline_bench.render ~to_json:E.Pipeline_bench.to_json
    ~check:E.Pipeline_bench.check (Term.const sweep)
