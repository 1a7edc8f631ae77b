(* The flight recorder: determinism of the exported trace, per-replica
   event accounting against ground truth, and the disabled-sink
   zero-event guarantee. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Paxos = Crane_paxos.Paxos
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics

(* One traced run of the echo cluster: [n] clients, one request each,
   against replica1, with [met] following the recorder.  Returns the
   recorder and the cluster (for ground truth) after the simulation
   settles. *)
let traced_run ?(seed = 42) ?(n = 6) ?(met = Metrics.create ()) () =
  let tr = Trace.create () in
  Metrics.attach met tr;
  let cluster =
    Cluster.create ~seed
      ~cfg:(Test_crane.test_cfg Instance.Full)
      ~trace:tr ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let answered = ref 0 in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (10 * i));
        match
          Test_crane.one_request cluster ~from:(Printf.sprintf "c%d" i)
            ~node:"replica1"
            ~msg:(Printf.sprintf "hello%d" i)
        with
        | Some _ -> incr answered
        | None -> ())
  done;
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check int) "all clients answered" n !answered;
  (tr, cluster)

(* Same seed, two separate simulations: the exported traces must match
   byte for byte (the determinism guarantee the whole layer rests on). *)
let test_deterministic_export () =
  let tr1, _ = traced_run () in
  let tr2, _ = traced_run () in
  Alcotest.(check bool) "trace is non-trivial" true (Trace.length tr1 > 100);
  Alcotest.(check int) "no events dropped" 0 (Trace.dropped tr1);
  Alcotest.(check string) "chrome JSON byte-identical" (Trace.to_chrome tr1)
    (Trace.to_chrome tr2);
  Alcotest.(check string) "JSONL byte-identical" (Trace.to_jsonl tr1)
    (Trace.to_jsonl tr2)

(* A different seed must still satisfy internal invariants but is free to
   differ; a cheap guard that the equality above is not vacuous. *)
let test_seed_sensitivity () =
  let tr1, _ = traced_run ~seed:42 () in
  let tr2, _ = traced_run ~seed:43 () in
  Alcotest.(check bool) "different seeds, different traces" true
    (Trace.to_chrome tr1 <> Trace.to_chrome tr2)

(* Per-replica commit accounting: every replica applies every decided
   entry, so each must log exactly [Paxos.decisions] "paxos.commit"
   instants, and the three replicas must agree. *)
let test_commit_counts () =
  let met = Metrics.create ~per_node:true () in
  let _, cluster = traced_run ~met () in
  let instances = Cluster.instances cluster in
  Alcotest.(check int) "three replicas" 3 (List.length instances);
  List.iter
    (fun (node, inst) ->
      let decided = (Paxos.stats inst.Instance.paxos).Paxos.decisions in
      Alcotest.(check bool) ("some decisions on " ^ node) true (decided > 0);
      Alcotest.(check int)
        ("commit events match decisions on " ^ node)
        decided
        (Metrics.counter_value met (node ^ "/paxos.commit")))
    instances;
  (* And proposals only happen on the primary. *)
  let proposes =
    List.filter
      (fun (node, _) -> Metrics.counter_value met (node ^ "/paxos.propose") > 0)
      instances
  in
  Alcotest.(check int) "exactly one proposing replica" 1 (List.length proposes)

(* Spans recorded during the run must aggregate into sane histograms:
   paired, positive, and attributed. *)
let test_span_metrics () =
  let met = Metrics.create () in
  ignore (traced_run ~met ());
  (match Metrics.summary met "paxos.decide" with
  | None -> Alcotest.fail "no paxos.decide spans recorded"
  | Some s ->
    Alcotest.(check bool) "decide spans positive" true (s.Metrics.p50 > 0);
    Alcotest.(check bool) "decide p99 >= p50" true (s.Metrics.p99 >= s.Metrics.p50));
  match Metrics.summary met "dmt.turn_wait" with
  | None -> Alcotest.fail "no dmt.turn_wait spans recorded"
  | Some s -> Alcotest.(check bool) "turn waits observed" true (s.Metrics.count > 0)

(* Without an attached recorder the engine uses Trace.null: permanently
   disabled, zero events, zero cost beyond one branch per site. *)
let test_disabled_sink_records_nothing () =
  let cluster =
    Cluster.create ~cfg:(Test_crane.test_cfg Instance.Full)
      ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 10);
      ignore (Test_crane.one_request cluster ~from:"c1" ~node:"replica1" ~msg:"hi"));
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let tr = Engine.trace eng in
  Alcotest.(check bool) "default sink is disabled" false (Trace.enabled tr);
  Alcotest.(check int) "no events recorded" 0 (Trace.length tr);
  (* The null sink cannot be switched on by accident. *)
  Trace.set_enabled Trace.null true;
  Alcotest.(check bool) "null stays disabled" false (Trace.enabled Trace.null)

(* An explicitly disabled recorder drops events at the emit sites too. *)
let test_toggling () =
  let tr = Trace.create () in
  Trace.record tr ~ts:0 ~tid:1 (Trace.Commit { index = 1 });
  Trace.set_enabled tr false;
  (* Call sites guard on [enabled]; emitting while disabled is the bug
     this test would catch in instrumentation code. *)
  Alcotest.(check bool) "disabled" false (Trace.enabled tr);
  Trace.set_enabled tr true;
  Trace.record tr ~ts:5 ~tid:1 (Trace.Commit { index = 2 });
  Alcotest.(check int) "both enabled-time events kept" 2 (Trace.length tr)

(* Retention limit: overflow is counted, never raised, and the limit
   keeps memory bounded. *)
let test_limit_and_streaming () =
  let tr = Trace.create ~limit:10 () in
  let streamed = ref 0 in
  Trace.add_sink tr (fun _ -> incr streamed);
  for i = 1 to 25 do
    Trace.record tr ~ts:i ~tid:0 (Trace.Commit { index = i })
  done;
  Alcotest.(check int) "retained capped" 10 (Trace.length tr);
  Alcotest.(check int) "overflow counted" 15 (Trace.dropped tr);
  Alcotest.(check int) "sink saw everything" 25 !streamed;
  let tr2 = Trace.create ~retain:false () in
  let met = Metrics.create () in
  Metrics.attach met tr2;
  for i = 1 to 7 do
    Trace.record tr2 ~ts:i ~tid:0 (Trace.Commit { index = i })
  done;
  Alcotest.(check int) "non-retaining keeps nothing" 0 (Trace.length tr2);
  Alcotest.(check int) "metrics counted via sink" 7 (Metrics.counter_value met "paxos.commit")

(* The wire format, pinned: one event of every kind, rendered through the
   recorder's JSONL exporter, must give exactly the line the analyzers,
   dashboards and stored traces expect. *)
let wire_rows =
  let m = { Trace.obj = 4; kind = Trace.Mutex; label = "m" } in
  let c = { Trace.obj = 5; kind = Trace.Cond; label = "cv" } in
  let prefix = {|{"ts":1500,"node":"n1","tid":3,|} in
  List.map
    (fun (ph, ev, rest) -> (ph, ev, prefix ^ rest))
    Trace.
      [
        (Instant, Thread_spawn { thread = "w"; parent = 1 },
         {|"cat":"sim","name":"thread_spawn","ph":"i","args":{"thread":"w","parent":1}}|});
        (Instant, Group_kill { group = 2 },
         {|"cat":"sim","name":"group_kill","ph":"i","args":{"group":2}}|});
        (Begin, Blocked, {|"cat":"sim","name":"blocked","ph":"B","args":{}}|});
        (End, Blocked, {|"cat":"sim","name":"blocked","ph":"E","args":{}}|});
        (Instant, Sync (Acquire, m),
         {|"cat":"sync","name":"acquire","ph":"i","args":{"obj":4,"kind":"mutex","label":"m"}}|});
        (Instant, Sync (Acquire_rd, { obj = 6; kind = Rwlock; label = "rw" }),
         {|"cat":"sync","name":"acquire_rd","ph":"i","args":{"obj":6,"kind":"rwlock","label":"rw"}}|});
        (Instant, Sync (Release, { obj = -2; kind = Turn; label = "turn" }),
         {|"cat":"sync","name":"release","ph":"i","args":{"obj":-2,"kind":"turn","label":"turn"}}|});
        (Instant, Sync (Cond_signal, c),
         {|"cat":"sync","name":"cond_signal","ph":"i","args":{"obj":5,"kind":"cond","label":"cv"}}|});
        (Instant, Sync (Cond_woken, c),
         {|"cat":"sync","name":"cond_woken","ph":"i","args":{"obj":5,"kind":"cond","label":"cv"}}|});
        (Instant, Sync (Sem_post, { obj = 7; kind = Sem; label = "s" }),
         {|"cat":"sync","name":"sem_post","ph":"i","args":{"obj":7,"kind":"sem","label":"s"}}|});
        (Instant, Sync (Sem_wait, { obj = 7; kind = Sem; label = "s" }),
         {|"cat":"sync","name":"sem_wait","ph":"i","args":{"obj":7,"kind":"sem","label":"s"}}|});
        (Instant, Sync (Barrier_arrive, { obj = 8; kind = Barrier; label = "b" }),
         {|"cat":"sync","name":"barrier_arrive","ph":"i","args":{"obj":8,"kind":"barrier","label":"b"}}|});
        (Instant, Sync (Barrier_leave, { obj = 8; kind = Barrier; label = "b" }),
         {|"cat":"sync","name":"barrier_leave","ph":"i","args":{"obj":8,"kind":"barrier","label":"b"}}|});
        (Instant, Cond_wait { cond = c; mutex = m },
         {|"cat":"sync","name":"cond_wait","ph":"i","args":{"obj":5,"kind":"cond","label":"cv","mutex":4,"mutex_label":"m"}}|});
        (Instant, Thread_exit, {|"cat":"sync","name":"thread_exit","ph":"i","args":{}}|});
        (Instant, Thread_join { joined = 9 },
         {|"cat":"sync","name":"thread_join","ph":"i","args":{"joined":9}}|});
        (Begin, Turn_wait { runq = 3 }, {|"cat":"dmt","name":"turn_wait","ph":"B","args":{"runq":3}}|});
        (End, Turn_wait { runq = 3 }, {|"cat":"dmt","name":"turn_wait","ph":"E","args":{}}|});
        (Instant, Mem { write = false; loc = 11; site = "x" },
         {|"cat":"mem","name":"read","ph":"i","args":{"loc":11,"site":"x"}}|});
        (Instant, Mem { write = true; loc = 11; site = "x" },
         {|"cat":"mem","name":"write","ph":"i","args":{"loc":11,"site":"x"}}|});
        (Instant, Drop { src = "n2"; reason = "partition" },
         {|"cat":"net","name":"drop","ph":"i","args":{"src":"n2","reason":"partition"}}|});
        (Instant, Rx { rx = Syn; conn = 12; bytes = 0 },
         {|"cat":"net","name":"rx_syn","ph":"i","args":{"conn":12}}|});
        (Instant, Rx { rx = Data; conn = 12; bytes = 40 },
         {|"cat":"net","name":"rx_data","ph":"i","args":{"conn":12,"bytes":40}}|});
        (Instant, Rx { rx = Fin; conn = 12; bytes = 0 },
         {|"cat":"net","name":"rx_fin","ph":"i","args":{"conn":12}}|});
        (Instant, Proposed { index = 13; conn = 12; call = Send; queued_ns = 70; view = 1 },
         {|"cat":"req","name":"proposed","ph":"i","args":{"index":13,"conn":12,"kind":"send","queued_ns":70,"view":1}}|});
        (Async_begin 13, Lifecycle { index = 13 },
         {|"cat":"req","name":"lifecycle","ph":"b","id":13,"args":{"index":13}}|});
        (Async_end 13, Lifecycle { index = 13 },
         {|"cat":"req","name":"lifecycle","ph":"e","id":13,"args":{}}|});
        (Instant, Fsync_done { index = 13 },
         {|"cat":"req","name":"fsync_done","ph":"i","args":{"index":13}}|});
        (Instant, Recv_return { conn = 12; bytes = 40 },
         {|"cat":"req","name":"recv_return","ph":"i","args":{"conn":12,"bytes":40}}|});
        (Instant, Reply { conn = 12; bytes = 6 },
         {|"cat":"req","name":"reply","ph":"i","args":{"conn":12,"bytes":6}}|});
        (Instant, Batch_flush { events = 2 },
         {|"cat":"proxy","name":"batch_flush","ph":"i","args":{"events":2}}|});
        (Instant, Bubble_proposed { nclock = 100 },
         {|"cat":"proxy","name":"bubble_proposed","ph":"i","args":{"nclock":100}}|});
        (Instant, Connect_proposed { conn = 12; port = 80 },
         {|"cat":"proxy","name":"call_proposed","ph":"i","args":{"conn":12,"port":80,"kind":"connect"}}|});
        (Instant, Send_proposed { conn = 12; bytes = 40 },
         {|"cat":"proxy","name":"call_proposed","ph":"i","args":{"conn":12,"bytes":40,"kind":"send"}}|});
        (Instant, Close_proposed { conn = 12 },
         {|"cat":"proxy","name":"call_proposed","ph":"i","args":{"conn":12,"kind":"close"}}|});
        (Instant, Read_lease { wm = 20; epoch = 1 },
         {|"cat":"read","name":"lease","ph":"i","args":{"wm":20,"epoch":1}}|});
        (Instant, Read_backup { wm = 18; stale = 2; epoch = 1 },
         {|"cat":"read","name":"backup","ph":"i","args":{"wm":18,"stale":2,"epoch":1}}|});
        (Instant, Read_reject { why = "no_lease" },
         {|"cat":"read","name":"reject","ph":"i","args":{"why":"no_lease"}}|});
        (Instant, Propose { index = 13; view = 1 },
         {|"cat":"paxos","name":"propose","ph":"i","args":{"index":13,"view":1}}|});
        (Async_begin 13, Decide { index = 13 },
         {|"cat":"paxos","name":"decide","ph":"b","id":13,"args":{"index":13}}|});
        (Async_end 13, Decide { index = 13 },
         {|"cat":"paxos","name":"decide","ph":"e","id":13,"args":{}}|});
        (Instant, Quorum_ack { index = 13; acks = 2 },
         {|"cat":"paxos","name":"quorum_ack","ph":"i","args":{"index":13,"acks":2}}|});
        (Instant, Commit { index = 13 }, {|"cat":"paxos","name":"commit","ph":"i","args":{"index":13}}|});
        (Instant, Heartbeat { view = 1; committed = 13 },
         {|"cat":"paxos","name":"heartbeat","ph":"i","args":{"view":1,"committed":13}}|});
        (Instant, Lease_grant { view = 1; until = 9000 },
         {|"cat":"paxos","name":"lease_grant","ph":"i","args":{"view":1,"until":9000}}|});
        (Instant, Abdicate { view = 1 }, {|"cat":"paxos","name":"abdicate","ph":"i","args":{"view":1}}|});
        (Instant, Election_start { view = 2 },
         {|"cat":"paxos","name":"election_start","ph":"i","args":{"view":2}}|});
        (Instant, View_change { view = 2; election_ns = 300 },
         {|"cat":"paxos","name":"view_change","ph":"i","args":{"view":2,"election_ns":300}}|});
        (Instant, Compact { watermark = 10; snapshot = 12 },
         {|"cat":"paxos","name":"compact","ph":"i","args":{"watermark":10,"snapshot":12}}|});
        (Instant, Snapshot_offer { index = 12; bytes = 64 },
         {|"cat":"paxos","name":"snapshot_offer","ph":"i","args":{"index":12,"bytes":64}}|});
        (Instant, Snapshot_serve { index = 12; dst = "n3" },
         {|"cat":"paxos","name":"snapshot_serve","ph":"i","args":{"index":12,"to":"n3"}}|});
        (Instant, Snapshot_install { index = 12; behind = 5 },
         {|"cat":"paxos","name":"snapshot_install","ph":"i","args":{"index":12,"behind":5}}|});
        (Instant, Join { node = "n4"; epoch = 2 },
         {|"cat":"member","name":"join","ph":"i","args":{"node":"n4","epoch":2}}|});
        (Instant, Leave { node = "n3"; epoch = 2 },
         {|"cat":"member","name":"leave","ph":"i","args":{"node":"n3","epoch":2}}|});
        (Instant, Fence { node = "n3"; epoch = 2 },
         {|"cat":"member","name":"fence","ph":"i","args":{"node":"n3","epoch":2}}|});
        (Instant, Reconfig_propose { epoch = 2; members = [ "n1"; "n2"; "n4" ] },
         {|"cat":"member","name":"reconfig_propose","ph":"i","args":{"epoch":2,"members":"n1,n2,n4"}}|});
        (Instant, Append { bubble = true; depth = 1; index = 14 },
         {|"cat":"seq","name":"append_bubble","ph":"i","args":{"depth":1,"index":14}}|});
        (Instant, Append { bubble = false; depth = 2; index = 13 },
         {|"cat":"seq","name":"append_call","ph":"i","args":{"depth":2,"index":13}}|});
        (Instant, Admit { index = 13; conn = 12 },
         {|"cat":"seq","name":"admit","ph":"i","args":{"index":13,"conn":12}}|});
        (Begin, Gate_block, {|"cat":"gate","name":"block","ph":"B","args":{}}|});
        (End, Gate_block, {|"cat":"gate","name":"block","ph":"E","args":{}}|});
        (Instant, Bubble_drain { clocks = 50; bulk = true },
         {|"cat":"gate","name":"bubble_drain","ph":"i","args":{"clocks":50,"bulk":1}}|});
        (Instant, Bubble_drain { clocks = 3; bulk = false },
         {|"cat":"gate","name":"bubble_drain","ph":"i","args":{"clocks":3,"bulk":0}}|});
        (Instant, Exec_begin { index = 13; conn = 12; lane = 2 },
         {|"cat":"exec","name":"begin","ph":"i","args":{"index":13,"conn":12,"lane":2}}|});
        (Instant, Exec_end { conn = 12 }, {|"cat":"exec","name":"end","ph":"i","args":{"conn":12}}|});
        (Instant, Wal_submit { bytes = 128; group = 2; queued = 1 },
         {|"cat":"wal","name":"write_submit","ph":"i","args":{"bytes":128,"group":2,"queued":1}}|});
        (Instant, Wal_durable { lat_ns = 15000; group = 2 },
         {|"cat":"wal","name":"write_durable","ph":"i","args":{"lat_ns":15000,"group":2}}|});
        (Counter 4, Open_conns, {|"cat":"counter","name":"open_conns","ph":"C","value":4,"args":{}}|});
        (Counter 7, Admitted, {|"cat":"counter","name":"admitted","ph":"C","value":7,"args":{}}|});
        (Instant, Fault { fault = Partition_oneway; target = "to n1" },
         {|"cat":"chaos","name":"partition_oneway","ph":"i","args":{"target":"to n1"}}|});
        (Instant, Fault { fault = Heal; target = "" }, {|"cat":"chaos","name":"heal","ph":"i","args":{}}|});
      ]

(* Numbers the constructors: the exhaustive match makes adding a kind
   without a wire row above a compile error here, and the test below
   fails until the row exists. *)
let kind_index : Trace.event -> int = function
  | Thread_spawn _ -> 0 | Group_kill _ -> 1 | Blocked -> 2 | Sync _ -> 3
  | Cond_wait _ -> 4 | Thread_exit -> 5 | Thread_join _ -> 6 | Turn_wait _ -> 7
  | Mem _ -> 8 | Drop _ -> 9 | Rx _ -> 10 | Proposed _ -> 11 | Lifecycle _ -> 12
  | Fsync_done _ -> 13 | Recv_return _ -> 14 | Reply _ -> 15 | Batch_flush _ -> 16
  | Bubble_proposed _ -> 17 | Connect_proposed _ -> 18 | Send_proposed _ -> 19
  | Close_proposed _ -> 20 | Read_lease _ -> 21 | Read_backup _ -> 22
  | Read_reject _ -> 23 | Propose _ -> 24 | Decide _ -> 25 | Quorum_ack _ -> 26
  | Commit _ -> 27 | Heartbeat _ -> 28 | Lease_grant _ -> 29 | Abdicate _ -> 30
  | Election_start _ -> 31 | View_change _ -> 32 | Compact _ -> 33
  | Snapshot_offer _ -> 34 | Snapshot_serve _ -> 35 | Snapshot_install _ -> 36
  | Join _ -> 37 | Leave _ -> 38 | Fence _ -> 39 | Reconfig_propose _ -> 40
  | Append _ -> 41 | Admit _ -> 42 | Gate_block -> 43 | Bubble_drain _ -> 44
  | Exec_begin _ -> 45 | Exec_end _ -> 46 | Wal_submit _ -> 47 | Wal_durable _ -> 48
  | Open_conns -> 49 | Admitted -> 50 | Fault _ -> 51

let kinds = 52

let test_wire_format () =
  let tr = Trace.create () in
  List.iter (fun (ph, ev, _) -> Trace.record tr ~ts:1500 ~tid:3 ~node:"n1" ~ph ev) wire_rows;
  List.iter2
    (fun (_, _, expected) ev ->
      Alcotest.(check string) "jsonl line" (expected ^ "\n") (Trace.jsonl_line tr ev))
    wire_rows (Trace.events tr);
  let covered = List.sort_uniq compare (List.map (fun (_, ev, _) -> kind_index ev) wire_rows) in
  Alcotest.(check (list int)) "every kind has a row" (List.init kinds Fun.id) covered

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "deterministic export" `Quick test_deterministic_export;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "commit counts per replica" `Quick test_commit_counts;
        Alcotest.test_case "span metrics" `Quick test_span_metrics;
        Alcotest.test_case "disabled sink records nothing" `Quick
          test_disabled_sink_records_nothing;
        Alcotest.test_case "toggling" `Quick test_toggling;
        Alcotest.test_case "limit and streaming" `Quick test_limit_and_streaming;
        Alcotest.test_case "wire format of every kind" `Quick test_wire_format;
      ] );
  ]
