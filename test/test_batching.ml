(* Batching and group commit: equivalence with the unbatched pipeline
   (same seed, byte-identical outputs), flush-policy boundary cases
   (flush-by-size, flush-by-timeout), group-commit WAL semantics, and
   demotion mid-batch. *)

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

let stagger_clients cluster n =
  let eng = Cluster.engine cluster in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (3 * i));
        ignore
          (Test_crane.one_request cluster ~from:(Printf.sprintf "c%d" i)
             ~node:"replica1" ~msg:(Printf.sprintf "req%d" i)))
  done

let primary_stats cluster =
  match Cluster.primary cluster with
  | Some (_, inst) -> Paxos.stats inst.Instance.paxos
  | None -> Alcotest.fail "cluster has no primary"

(* Flush by size: with batch_max 4 and a flush timer parked far away, a
   connection that feeds 4 events inside the timer window must flush on
   the size trigger alone. *)
let test_flush_by_size () =
  let cfg =
    { (Test_crane.test_cfg Instance.Paxos_only) with
      batch_max = 4; batch_delay = Time.ms 50 }
  in
  let cluster = Cluster.create ~cfg ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let received = Buffer.create 64 in
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 10);
      let world = Cluster.world cluster in
      let conn = Sock.connect world ~from:"c1" ~node:"replica1" ~port:80 in
      (* Connect + three spaced sends = 4 events, all well inside the
         50 ms flush timer: only the size trigger can commit them. *)
      List.iter
        (fun m ->
          Sock.send conn m;
          Engine.sleep eng (Time.us 200))
        [ "a"; "b"; "c" ];
      (* The whole batch commits at once, so the server may see (and
         echo) the three payloads coalesced: read until the last payload
         has been echoed back, however the chunks land. *)
      let rec pump () =
        let data = Sock.recv ~timeout:(Time.sec 2) conn ~max:4096 in
        if data <> "" then begin
          Buffer.add_string received data;
          if not (String.contains (Buffer.contents received) 'c') then pump ()
        end
      in
      pump ();
      Sock.close conn);
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  let got = Buffer.contents received in
  List.iter
    (fun payload ->
      Alcotest.(check bool) (payload ^ " echoed back") true
        (String.contains got payload.[0]))
    [ "a"; "b"; "c" ];
  let stats = primary_stats cluster in
  Alcotest.(check bool) "a full 4-event batch committed" true
    (List.mem_assoc 4 stats.Paxos.events_per_batch)

(* Flush by timeout: with batch_max far above the traffic, nothing ever
   fills a batch — commits must still happen, driven by the timer. *)
let test_flush_by_timeout () =
  let cfg =
    { (Test_crane.test_cfg Instance.Paxos_only) with
      batch_max = 64; batch_delay = Time.us 100 }
  in
  let cluster = Cluster.create ~cfg ~server:Test_crane.echo_server () in
  Cluster.start ~checkpoints:false cluster;
  stagger_clients cluster 4;
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let stats = primary_stats cluster in
  Alcotest.(check bool) "decisions committed without a full batch" true
    (stats.Paxos.decisions >= 12);
  Alcotest.(check bool) "batches committed" true (stats.Paxos.batches_committed > 0);
  Alcotest.(check bool) "no batch ever filled" true
    (List.for_all (fun (size, _) -> size < 64) stats.Paxos.events_per_batch)

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
  (* The batched run must actually have batched something (a lone
     connect rides the flush timer together with its first send). *)
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
        Alcotest.test_case "flush by size" `Quick test_flush_by_size;
        Alcotest.test_case "flush by timeout" `Quick test_flush_by_timeout;
        Alcotest.test_case "cluster byte-identical equivalence" `Quick
          test_cluster_equivalence;
        Alcotest.test_case "chaos config is batched" `Quick test_chaos_config_batched;
      ] );
  ]
