let () =
  Alcotest.run "rnet"
    [
      ("sim", Test_sim.suite);
      ("metrics", Test_metrics.suite);
      ("atm", Test_atm.suite);
      ("cluster", Test_cluster.suite);
      ("rmem", Test_rmem.suite);
      ("extensions", Test_extensions.suite);
      ("rpc", Test_rpc.suite);
      ("names", Test_names.suite);
      ("dfs", Test_dfs.suite);
      ("workload", Test_workload.suite);
      ("svm", Test_svm.suite);
      ("replica", Test_replica.suite);
      ("amsg", Test_amsg.suite);
      ("edges", Test_edges.suite);
      ("stress", Test_stress.suite);
      ("experiments", Test_experiments.suite);
      ("analysis", Test_analysis.suite);
      ("static", Test_static.suite);
      ("explore", Test_explore.suite);
      ("catalog", Test_catalog.suite);
      ("linearize", Test_linearize.suite);
      ("obs", Test_obs.suite);
      ("faults", Test_faults.suite);
      ("pipeline", Test_pipeline.suite);
      ("shard", Test_shard.suite);
      ("dds", Test_dds.suite);
    ]
