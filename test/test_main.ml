let () =
  Alcotest.run "depfast"
    (List.concat [ Test_sim.suite; Test_event.suite; Test_sched.suite; Test_cluster.suite; Test_raft.suite;
        Test_workload.suite; Test_baseline.suite; Test_extensions.suite; Test_harness.suite; Test_properties.suite;
        Test_lint.suite; Test_interproc.suite; Test_bounds.suite; Test_domains.suite; Test_spg.suite; Test_check.suite;
        Test_multicore.suite; Test_front.suite ])
