(* Batching and group commit: equivalence with the unbatched pipeline
   (same seed, byte-identical outputs), the self-clocked flush policy
   (propose at once when idle, flush on the commit that empties the
   pipeline or at batch_max), group-commit WAL semantics, and demotion
   mid-batch. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Chaos = Crane_chaos.Chaos
module Trace = Crane_trace.Trace
module G = Paxos_group

(* ------------------------------------------------------------------ *)
(* WAL group commit. *)

let test_wal_group_commit () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  let done_ = ref false in
  Wal.append_async wal [ "a"; "b"; "c" ] (fun () -> done_ := true);
  Engine.run eng;
  Alcotest.(check bool) "continuation fired" true !done_;
  Alcotest.(check (list string)) "records in list order" [ "a"; "b"; "c" ]
    (Wal.records wal);
  Alcotest.(check int) "one durable write for the group" 1 (Wal.writes wal)

let test_wal_group_crash_all_or_nothing () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  let done_ = ref false in
  Wal.append_async wal [ "alpha"; "beta"; "gamma" ] (fun () -> done_ := true);
  (* Crash before the group's fsync instant: the whole group is lost
     (oldest member survives only as a torn partial tail). *)
  Alcotest.(check bool) "torn tail produced" true (Wal.crash_torn_tail wal);
  Engine.run eng;
  Alcotest.(check bool) "continuation never fired" false !done_;
  Alcotest.(check (list string)) "no intact record survives" [] (Wal.records wal);
  match Wal.entries wal with
  | [ t ] ->
    Alcotest.(check bool) "tail torn" true t.Wal.torn;
    Alcotest.(check string) "tail is an alpha prefix" "al" t.Wal.data
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Paxos-level equivalence: the same values in the same bursts, batched
   vs. one submit per value, must produce identical applied sequences on
   every replica — while the batched primary performs fewer durable
   writes. *)

let run_bursts ~batched () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.G.eng ~name:"client" (fun () ->
      Engine.sleep sim.G.eng (Time.ms 10);
      for b = 0 to 9 do
        let vs = List.init 6 (fun i -> Printf.sprintf "v%d" ((b * 6) + i)) in
        (if batched then
           Alcotest.(check bool) "primary accepts batch" true
             (Paxos.submit p1 vs <> None)
         else List.iter (fun v -> ignore (Paxos.submit p1 [ v ])) vs);
        Engine.sleep sim.G.eng (Time.ms 2)
      done);
  Engine.run ~until:(Time.sec 2) sim.G.eng;
  let logs = List.map (fun n -> (n.G.n_name, G.applied_log n)) sim.G.nodes in
  let writes = Wal.writes (Hashtbl.find sim.G.wals "n1") in
  (logs, writes, Paxos.stats p1)

let test_paxos_equivalence () =
  let logs_u, writes_u, _ = run_bursts ~batched:false () in
  let logs_b, writes_b, stats_b = run_bursts ~batched:true () in
  List.iter2
    (fun (n, lu) (_, lb) ->
      Alcotest.(check int) (n ^ " applied all 60") 60 (List.length lb);
      Alcotest.(check (list string)) (n ^ " batched = unbatched order") lu lb)
    logs_u logs_b;
  Alcotest.(check bool)
    (Printf.sprintf "batched fsyncs %d < unbatched %d" writes_b writes_u)
    true (writes_b < writes_u);
  Alcotest.(check int) "all 10 batches committed" 10 stats_b.Paxos.batches_committed;
  Alcotest.(check (list (pair int int))) "histogram: ten 6-event batches"
    [ (6, 10) ] stats_b.Paxos.events_per_batch

let test_submit_refusals () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p and p2 = (List.nth nodes 1).G.n_p in
  let r_backup = ref true and r_empty = ref true in
  Engine.spawn sim.G.eng ~name:"client" (fun () ->
      Engine.sleep sim.G.eng (Time.ms 10);
      r_backup := Paxos.submit p2 [ "a"; "b" ] <> None;
      r_empty := Paxos.submit p1 [] <> None);
  Engine.run ~until:(Time.ms 100) sim.G.eng;
  Alcotest.(check bool) "backup refuses batches" false !r_backup;
  Alcotest.(check bool) "empty batch refused" false !r_empty

(* Demotion mid-batch: a primary proposes a batch it can no longer
   commit (partitioned from the quorum), abdicates, and must shed the
   batch cleanly — the abandoned values never surface on the majority
   side, the demote callback fires, and open-batch accounting is voided.
   The partition stays up: a healed old leader may legitimately win a
   higher view and resurrect its uncommitted tail through the log merge,
   which is viewstamped behavior, not what this test pins down. *)
let test_demotion_mid_batch () =
  let sim, nodes = G.start () in
  let n1 = List.hd nodes in
  let p1 = n1.G.n_p and log1 = n1.G.n_log in
  let demoted = ref false in
  Paxos.set_handlers p1
    { Paxos.on_commit = (fun ~index:_ v -> log1 := v :: !log1);
      on_demote = (fun () -> demoted := true);
      on_config = (fun ~epoch:_ _ -> ());
      on_fence = (fun ~epoch:_ -> ()) };
  Engine.at sim.G.eng (Time.ms 50) (fun () ->
      Fabric.partition sim.G.fabric [ "n1" ] [ "n2"; "n3" ]);
  Engine.spawn sim.G.eng ~name:"client" (fun () ->
      Engine.sleep sim.G.eng (Time.ms 60);
      (* Still believes itself primary: the batch is accepted but can
         never commit. *)
      Alcotest.(check bool) "isolated primary still accepts" true
        (Paxos.submit p1 [ "x1"; "x2" ] <> None));
  Engine.at sim.G.eng (Time.sec 2) (fun () ->
      match G.find_primary sim with
      | Some { G.n_name = n; n_p = p; _ } ->
        Alcotest.(check bool) "new primary is a backup" true (n <> "n1");
        ignore (Paxos.submit p [ "y1" ])
      | None -> Alcotest.fail "no new primary elected");
  Engine.run ~until:(Time.sec 4) sim.G.eng;
  Alcotest.(check bool) "old primary demoted" true !demoted;
  List.iter
    (fun n ->
      if n.G.n_name <> "n1" then
        Alcotest.(check (list string)) (n.G.n_name ^ " only the post-demotion value")
          [ "y1" ] (G.applied_log n))
    sim.G.nodes;
  Alcotest.(check (list string)) "isolated old primary applied nothing" []
    (G.applied_log n1);
  Alcotest.(check int) "abandoned batch not counted" 0
    (Paxos.stats p1).Paxos.batches_committed

(* ------------------------------------------------------------------ *)
(* Proxy flush policy, exercised end to end through a cluster. *)

(* Client [i] connects at 3i ms, sends its request and closes at once:
   the send and the close land while the connect's round is in flight,
   so with batching on they leave as one batch when it commits.  (Two
   sends would not do: in Paxos-only mode the server's recv returns
   whatever has been delivered, so a batched pair reads as one request
   where the unbatched run may read two.)  The reply is never read; the
   replica output logs record it all the same. *)
let stagger_clients cluster n =
  let eng = Cluster.engine cluster in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (3 * i));
        let conn =
          Sock.connect (Cluster.world cluster) ~from:(Printf.sprintf "c%d" i)
            ~node:"replica1" ~port:80
        in
        Sock.send conn (Printf.sprintf "req%d" i);
        Sock.close conn)
  done

let primary_stats cluster =
  match Cluster.primary cluster with
  | Some (_, inst) -> Paxos.stats inst.Instance.paxos
  | None -> Alcotest.fail "cluster has no primary"

(* A traced Paxos-only cluster on a slow WAL device (2 ms per fsync), so
   a round stays in flight long enough for later arrivals to land in
   it.  Client [i] connects to the primary at [List.nth ats i] and holds
   the connection open.  Returns the primary's proposals
   [(ts, index, queued_ns)], batch flushes [(ts, events)] and commits
   [(ts, index)], each in trace order. *)
let connect_at ?(batch_max = 64) ats =
  let cfg =
    { (Test_crane.test_cfg Instance.Paxos_only) with
      batch_max; wal_write_latency = Time.ms 2 }
  in
  let tr = Trace.create () in
  let cluster = Cluster.create ~cfg ~trace:tr ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  List.iteri
    (fun i at ->
      Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
          Engine.sleep eng at;
          ignore
            (Sock.connect (Cluster.world cluster) ~from:(Printf.sprintf "c%d" i)
               ~node:"replica1" ~port:80)))
    ats;
  Cluster.run ~until:(Time.ms 100) cluster;
  Cluster.check_failures cluster;
  let on_primary = List.filter (fun ev -> ev.Trace.node = "replica1") (Trace.events tr) in
  let pick f = List.filter_map (fun ev -> f ev.Trace.ts ev.Trace.event) on_primary in
  ( pick (fun ts -> function
      | Trace.Proposed { index; queued_ns; _ } -> Some (ts, index, queued_ns)
      | _ -> None),
    pick (fun ts -> function Trace.Batch_flush { events } -> Some (ts, events) | _ -> None),
    pick (fun ts -> function Trace.Commit { index } -> Some (ts, index) | _ -> None) )

let commit_ts commits index = fst (List.find (fun (_, i) -> i = index) commits)

(* A lone request on an idle primary has no round to ride along with:
   it is proposed the instant it arrives. *)
let test_lone_request_proposed_at_once () =
  match connect_at [ Time.ms 10 ] with
  | [ (_, _, queued) ], [ (_, 1) ], _ ->
    Alcotest.(check int) "connect queued 0 ns" 0 queued
  | p, f, _ ->
    Alcotest.failf "expected one 1-event proposal, got %d proposals in %d flushes"
      (List.length p) (List.length f)

(* Events arriving while a round is in flight wait for it, then leave
   together as one batch the instant its commit empties the pipeline. *)
let test_inflight_arrivals_leave_together () =
  match connect_at [ Time.ms 10; Time.ms 10 + Time.us 100; Time.ms 10 + Time.us 200 ] with
  | [ (_, first, 0); (_, i2, q2); (_, i3, q3) ], [ (_, 1); (flushed, 2) ], commits ->
    Alcotest.(check int) "flushed at the first round's commit" (commit_ts commits first)
      flushed;
    Alcotest.(check (list int)) "consecutive indices" [ first + 1; first + 2 ] [ i2; i3 ];
    Alcotest.(check bool) "both waited for the round" true (q2 > q3 && q3 > 0)
  | p, f, _ ->
    Alcotest.failf "expected flushes of 1 then 2 events, got %d proposals in %d flushes"
      (List.length p) (List.length f)

(* A full buffer does not wait for the round in flight. *)
let test_full_buffer_flushes_mid_round () =
  match
    connect_at ~batch_max:2 [ Time.ms 10; Time.ms 10 + Time.us 100; Time.ms 10 + Time.us 200 ]
  with
  | [ (_, first, 0); (_, _, q2); (_, _, q3) ], [ (_, 1); (flushed, 2) ], commits ->
    Alcotest.(check bool) "flushed before the first round committed" true
      (flushed < commit_ts commits first);
    Alcotest.(check int) "the filling event queued 0 ns" 0 q3;
    Alcotest.(check bool) "the earlier one waited" true (q2 > 0)
  | p, f, _ ->
    Alcotest.failf "expected flushes of 1 then 2 events, got %d proposals in %d flushes"
      (List.length p) (List.length f)

(* A configuration entry commits through [on_config], never [on_commit]:
   when it is the round in flight, its activation must still send what
   arrived behind it, or a lone client waits forever. *)
let test_flush_after_reconfig () =
  let cfg =
    { (Test_crane.test_cfg Instance.Paxos_only) with wal_write_latency = Time.ms 2 }
  in
  let cluster = Cluster.create ~cfg ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let reply = ref None in
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 100);
      let p = (snd (Option.get (Cluster.primary cluster))).Instance.paxos in
      Alcotest.(check bool) "reconfig proposed" true
        (Paxos.submit_reconfig p (Cluster.members cluster @ [ "replica4" ]) <> None);
      reply :=
        Test_crane.one_request cluster ~from:"c1" ~node:"replica1" ~msg:"hello");
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check (option string)) "reply within 2 s" (Some "echo[1]:hello") !reply

(* ------------------------------------------------------------------ *)
(* End-to-end equivalence: same seed, batching on vs. off, a staggered
   client schedule (so event arrival order does not depend on
   response-latency races) — replica outputs must be byte-identical
   across the two configurations, and server states must match. *)

let run_staggered ~batch_max ~seed =
  let cfg = { (Test_crane.test_cfg Instance.Paxos_only) with batch_max } in
  let cluster = Cluster.create ~seed ~cfg ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:false cluster;
  stagger_clients cluster 8;
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let outs = Cluster.outputs cluster in
  let consistent =
    match outs with
    | (_, o1) :: rest -> List.for_all (fun (_, o) -> Output_log.equal o1 o) rest
    | [] -> false
  in
  let rendered = match outs with (_, o1) :: _ -> Output_log.render o1 | [] -> "" in
  let states =
    List.map
      (fun (_, inst) -> inst.Instance.handle.Api.state_of ())
      (Cluster.instances cluster)
  in
  let stats = primary_stats cluster in
  (rendered, consistent, states, stats)

let test_cluster_equivalence () =
  let r_u, c_u, s_u, _ = run_staggered ~batch_max:1 ~seed:42 in
  let r_b, c_b, s_b, stats_b = run_staggered ~batch_max:64 ~seed:42 in
  Alcotest.(check bool) "unbatched replicas consistent" true c_u;
  Alcotest.(check bool) "batched replicas consistent" true c_b;
  Alcotest.(check bool) "run produced output" true (String.length r_u > 0);
  Alcotest.(check string) "batched output byte-identical to unbatched" r_u r_b;
  Alcotest.(check (list string)) "server states identical" s_u s_b;
  (* The batched run must actually have batched something (each
     client's send and close ride one round behind its connect). *)
  Alcotest.(check bool) "multi-event batches formed" true
    (List.exists (fun (size, _) -> size >= 2) stats_b.Paxos.events_per_batch)

(* The chaos suite exercises the whole fault matrix with the default
   instance config; pin down that this default really enables batching,
   so "chaos green" keeps meaning "chaos green with batching". *)
let test_chaos_config_batched () =
  Alcotest.(check bool) "chaos runs with batching enabled" true
    (Chaos.chaos_config.Instance.batch_max > 1);
  Alcotest.(check bool) "default config enables batching" true
    (Instance.default_config.Instance.batch_max > 1)

let suite =
  [
    ( "batching",
      [
        Alcotest.test_case "wal group commit" `Quick test_wal_group_commit;
        Alcotest.test_case "wal group crash all-or-nothing" `Quick
          test_wal_group_crash_all_or_nothing;
        Alcotest.test_case "paxos batched = unbatched" `Quick test_paxos_equivalence;
        Alcotest.test_case "submit refusals" `Quick test_submit_refusals;
        Alcotest.test_case "demotion mid-batch sheds" `Quick test_demotion_mid_batch;
        Alcotest.test_case "lone request proposed at once" `Quick
          test_lone_request_proposed_at_once;
        Alcotest.test_case "in-flight arrivals leave together" `Quick
          test_inflight_arrivals_leave_together;
        Alcotest.test_case "full buffer flushes mid-round" `Quick
          test_full_buffer_flushes_mid_round;
        Alcotest.test_case "flush after reconfig commit" `Quick test_flush_after_reconfig;
        Alcotest.test_case "cluster byte-identical equivalence" `Quick
          test_cluster_equivalence;
        Alcotest.test_case "chaos config is batched" `Quick test_chaos_config_batched;
      ] );
  ]
