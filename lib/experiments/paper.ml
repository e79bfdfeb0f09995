(* Every table and figure of the paper's evaluation, the ablations in
   the paper's order, then the campaigns that carry its crossover past
   its own tables: what [rnet repro] runs and EXPERIMENTS.md quotes. *)

let all =
  [
    ("table1a", "Table 1a: summary of NFS RPC activity", Table1a.run);
    ("table1b", "Table 1b: control vs data traffic breakdown", Table1b.run);
    ("table2", "Table 2: remote memory operation performance", Table2.run);
    ("table3", "Table 3: name server performance", Table3.run);
    ("fig2", "Figure 2: client latency, HY vs DX", Fig2.run);
    ("fig3", "Figure 3: server CPU breakdown, HY vs DX", Fig3.run);
    ("headline", "The 50% server-load reduction headline", Headline.run);
    ("scale", "Ablation A: scalability with client count", Scalability.run);
    ("blocksize", "Ablation B: latency vs transfer size", Blocksize.run);
    ( "probes",
      "Ablation C: probing vs control transfer in name lookup",
      Probe_policy.run );
    ("coherence", "Ablation D: CAS vs RPC token coherence", Coherence_bench.run);
    ("security", "Ablation E: the cost of link encryption", Security.run);
    ("svm", "Ablation F: SVM vs remote memory (false sharing)", Svm_bench.run);
    ("amsg", "Ablation G: remote reads vs active messages vs RPC", Amsg_bench.run);
    ( "technology",
      "Ablation H: the trade-off across technology generations",
      Technology.run );
    ("burst", "Ablation I: block-transfer burst size", Burst.run);
    ( "pipeline",
      "Campaign: pipelined issue engine vs the synchronous path",
      Pipeline_bench.run );
    ( "shard",
      "Campaign: sharded name service vs one registry on a Clos fabric",
      Shard_bench.run );
    ("dds", "Campaign: data structures, DX vs RPC vs hybrid", Dds_bench.run);
  ]
