(* Critical-path profiler: span integrity of the request DAGs under the
   interesting regimes (steady state, view change, snapshot catch-up with
   compaction truncation, batched vs. unbatched), determinism of the
   report, and the Metrics aggregation guards it leans on. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Paxos = Crane_paxos.Paxos
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
module Critical_path = Crane_trace.Critical_path

let check_well_formed ~what (r : Critical_path.report) =
  Alcotest.(check (list string)) (what ^ ": no malformed span DAGs") [] r.errors;
  Alcotest.(check bool)
    (Printf.sprintf "%s: committed some requests (%d)" what r.committed)
    true (r.committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: coverage %.3f >= 0.99" what r.coverage)
    true (r.coverage >= 0.99)

let stage_summary (r : Critical_path.report) name =
  (List.find (fun s -> s.Critical_path.stage = name) r.stages)
    .Critical_path.summary

(* Echo cluster recorded by [tr] under [n] one-request clients. *)
let traced_run ?(cfg = Test_crane.test_cfg Instance.Full) ?(seed = 7) ?(n = 6)
    ?(until = Time.sec 3) ?(tr = Trace.create ()) () =
  let cluster =
    Cluster.create ~seed ~cfg ~trace:tr ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (15 * i));
        ignore
          (Test_crane.one_request cluster ~from:(Printf.sprintf "c%d" i)
             ~node:"replica1"
             ~msg:(Printf.sprintf "hello%d" i)))
  done;
  Cluster.run ~until cluster;
  Cluster.check_failures cluster;
  tr

let test_steady_state_complete () =
  let tr = traced_run () in
  let r = Critical_path.analyze tr in
  check_well_formed ~what:"steady state" r;
  Alcotest.(check bool) "full coverage in steady state" true
    (r.Critical_path.complete = r.Critical_path.committed);
  (* every committed call carries the core stages; replies exist only for
     the send-kind calls (connect/close produce no response) *)
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (stage ^ " decomposed for every request")
        r.Critical_path.committed (stage_summary r stage).Metrics.count)
    [ "client_queue"; "batch_wait"; "fsync"; "consensus"; "sched_wait" ];
  Alcotest.(check bool) "execute stage covers the sends" true
    ((stage_summary r "execute").Metrics.count > 0);
  Alcotest.(check int) "end-to-end sample per request"
    r.Critical_path.committed r.Critical_path.e2e.Metrics.count

(* Kill the boot primary under load: spans proposed in the old view and
   re-proposed/committed by the new primary must still decompose, and the
   report must attribute requests to both views. *)
let test_view_change_spans () =
  let tr = Trace.create () in
  let cluster =
    Cluster.create ~seed:11
      ~cfg:(Test_crane.test_cfg Instance.Full)
      ~trace:tr ~server:Test_crane.echo_server ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  Engine.spawn eng ~name:"client-before" (fun () ->
      Engine.sleep eng (Time.ms 10);
      ignore (Test_crane.request_with_retry cluster ~from:"c1" ~msg:"before"));
  Engine.at eng (Time.ms 300) (fun () -> Cluster.kill cluster "replica1");
  Engine.spawn eng ~name:"client-after" (fun () ->
      Engine.sleep eng (Time.ms 400);
      ignore (Test_crane.request_with_retry cluster ~from:"c2" ~msg:"after"));
  Cluster.run ~until:(Time.sec 10) cluster;
  Cluster.check_failures cluster;
  let r = Critical_path.analyze tr in
  check_well_formed ~what:"view change" r;
  Alcotest.(check bool) "requests span multiple views" true
    (List.length r.Critical_path.per_view >= 2)

(* Aggressive compaction + a replica that misses enough history to need
   snapshot catch-up: replayed deliveries re-admit old indices on the
   restarted node, which must not corrupt the original spans. *)
let test_catchup_compaction_spans () =
  let cfg =
    { (Test_crane.test_cfg Instance.Full) with
      checkpoint_period = Time.ms 500;
      paxos =
        { (Test_crane.test_cfg Instance.Full).Instance.paxos with
          Paxos.compaction_threshold = 24; catchup_chunk = 16 } }
  in
  let tr = Trace.create () in
  let cluster = Cluster.create ~seed:19 ~cfg ~trace:tr ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:true cluster;
  let eng = Cluster.engine cluster in
  for i = 1 to 8 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (40 * i));
        ignore
          (Test_crane.one_request cluster ~from:(Printf.sprintf "c%d" i)
             ~node:"replica1"
             ~msg:(Printf.sprintf "req%d" i)))
  done;
  Engine.at eng (Time.ms 250) (fun () -> Cluster.kill cluster "replica3");
  Engine.at eng (Time.sec 3) (fun () -> ignore (Cluster.restart cluster "replica3"));
  Cluster.run ~until:(Time.sec 12) cluster;
  Cluster.check_failures cluster;
  let compactions =
    List.fold_left
      (fun acc (_, inst) -> acc + (Paxos.stats inst.Instance.paxos).Paxos.compactions)
      0 (Cluster.instances cluster)
  in
  Alcotest.(check bool) "compaction actually truncated the log" true
    (compactions > 0);
  check_well_formed ~what:"catch-up + compaction" (Critical_path.analyze tr)

let test_batched_vs_unbatched () =
  let run batch_max =
    let cfg = { (Test_crane.test_cfg Instance.Full) with Instance.batch_max } in
    Critical_path.analyze (traced_run ~cfg ())
  in
  let batched = run 64 and unbatched = run 1 in
  check_well_formed ~what:"batched" batched;
  check_well_formed ~what:"unbatched" unbatched;
  Alcotest.(check int) "unbatched requests never wait on a batch" 0
    (stage_summary unbatched "batch_wait").Metrics.total;
  Alcotest.(check bool) "batched requests do" true
    ((stage_summary batched "batch_wait").Metrics.total > 0)

(* Determinism: same seed, two simulations — the span export and the
   rendered critical-path report must match byte for byte. *)
let test_same_seed_identical () =
  let tr1 = traced_run ~seed:23 () and tr2 = traced_run ~seed:23 () in
  Alcotest.(check string) "span export byte-identical" (Trace.to_jsonl tr1)
    (Trace.to_jsonl tr2);
  Alcotest.(check string) "profile report byte-identical"
    (Critical_path.render (Critical_path.analyze tr1))
    (Critical_path.render (Critical_path.analyze tr2))

(* A store capped below the run's length keeps only a prefix: replaying
   it misses the late commits, while the pass attached to the same
   recorder reports exactly what an uncapped replay does. *)
let test_truncated_store () =
  let full = traced_run () in
  let want = Critical_path.analyze full in
  let tr = Trace.create ~limit:(Trace.length full / 2) () in
  let cp = Critical_path.attach tr in
  ignore (traced_run ~tr ());
  Alcotest.(check bool) "store truncated" true (Trace.dropped tr > 0);
  let streamed = Critical_path.report cp and prefix = Critical_path.analyze tr in
  check_well_formed ~what:"attached" streamed;
  Alcotest.(check int) "attached covers every committed call" streamed.committed
    streamed.complete;
  Alcotest.(check string) "attached equals the uncapped replay"
    (Critical_path.render want) (Critical_path.render streamed);
  Alcotest.(check bool)
    (Printf.sprintf "truncated replay covers %d of %d" prefix.complete streamed.committed)
    true (prefix.complete < streamed.committed)

(* ---- Metrics guards and cluster-wide merge (satellite) ---- *)

let test_summarize_degenerate () =
  let z = Metrics.summarize [] in
  Alcotest.(check int) "empty count" 0 z.Metrics.count;
  Alcotest.(check int) "empty p99" 0 z.Metrics.p99;
  Alcotest.(check int) "empty max" 0 z.Metrics.max;
  let s = Metrics.summarize [ 7 ] in
  Alcotest.(check int) "singleton count" 1 s.Metrics.count;
  Alcotest.(check int) "singleton p50" 7 s.Metrics.p50;
  Alcotest.(check int) "singleton p99" 7 s.Metrics.p99;
  Alcotest.(check int) "singleton total" 7 s.Metrics.total

let test_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "req";
  Metrics.incr b ~by:2 "req";
  Metrics.incr b "only_b";
  Metrics.observe a "lat" 10;
  Metrics.observe a "lat" 30;
  Metrics.observe b "lat" 20;
  Metrics.observe b "solo" 5;
  let m = Metrics.merged [ a; b ] in
  Alcotest.(check int) "counters add" 3 (Metrics.counter_value m "req");
  Alcotest.(check int) "disjoint counter kept" 1 (Metrics.counter_value m "only_b");
  (match Metrics.summary m "lat" with
  | Some s ->
    Alcotest.(check int) "merged sample count" 3 s.Metrics.count;
    Alcotest.(check int) "merged total" 60 s.Metrics.total;
    Alcotest.(check int) "merged max" 30 s.Metrics.max
  | None -> Alcotest.fail "merged histogram missing");
  (match Metrics.summary m "solo" with
  | Some s -> Alcotest.(check int) "singleton series survives merge" 5 s.Metrics.p50
  | None -> Alcotest.fail "solo histogram missing");
  (* the originals are untouched *)
  Alcotest.(check int) "source unchanged" 1 (Metrics.counter_value a "req")

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "steady-state decomposition complete" `Quick
          test_steady_state_complete;
        Alcotest.test_case "spans survive view change" `Quick test_view_change_spans;
        Alcotest.test_case "spans survive catch-up and compaction" `Quick
          test_catchup_compaction_spans;
        Alcotest.test_case "batched vs unbatched" `Quick test_batched_vs_unbatched;
        Alcotest.test_case "same seed, byte-identical report" `Quick
          test_same_seed_identical;
        Alcotest.test_case "attached pass outlives a truncated store" `Quick
          test_truncated_store;
        Alcotest.test_case "summarize: empty and singleton series" `Quick
          test_summarize_degenerate;
        Alcotest.test_case "metrics merge" `Quick test_merge;
      ] );
  ]
