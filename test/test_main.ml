(* [--schedules N] sets how many random schedules the protocol property
   (paxos.core) runs; every other test ignores it. *)
let schedules =
  Cmdliner.Arg.(
    value
    & opt int Test_paxos_core.default_schedules
    & info [ "schedules" ] ~docv:"N" ~doc:"Random schedules for the paxos.core property.")

let () =
  let suites =
    Test_sim.suite @ Test_net.suite @ Test_threads.suite @ Test_paxos.suite @ Test_fs.suite
    @ Test_crane.suite @ Test_apps.suite @ Test_units.suite @ Test_trace.suite
    @ Test_chaos.suite @ Test_batching.suite @ Test_compaction.suite @ Test_analysis.suite
    @ Test_profile.suite @ Test_reconfig.suite @ Test_reads.suite @ Test_parallel.suite
    @ Test_mc.suite @ Test_rows.suite @ Test_storage.suite
  in
  let ignore_arg (name, cases) = (name, List.map (fun (c, s, f) -> (c, s, fun (_ : int) -> f ())) cases) in
  Alcotest.run_with_args "crane" schedules (List.map ignore_arg suites @ Test_paxos_core.suite)
