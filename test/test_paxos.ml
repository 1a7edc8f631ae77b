(* Tests for the PAXOS consensus component: normal-case agreement, leader
   election, catch-up, WAL recovery, heartbeat retransmission of a batch
   whose acks were lost, and property-based safety under a message-loss
   nemesis. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Paxos = Crane_paxos.Paxos
module G = Paxos_group
module Mc = Crane_analysis.Mc

(* ------------------------------------------------------------------ *)

let test_normal_case_agreement () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 20 do
        Alcotest.(check bool) "primary accepts" true
          (Paxos.submit p1 [ Printf.sprintf "v%d" i ] <> None);
        Engine.sleep sim.eng (Time.ms 1)
      done);
  Engine.run ~until:(Time.sec 2) sim.eng;
  let expected = List.init 20 (fun i -> Printf.sprintf "v%d" (i + 1)) in
  List.iter
    (fun ({ G.n_name = name; n_p = p; _ } as n) ->
      Alcotest.(check (list string)) (name ^ " applied all in order") expected
        (G.applied_log n);
      Alcotest.(check int) (name ^ " committed") 20 (Paxos.committed p))
    sim.nodes

let test_submit_on_backup_rejected () =
  let sim, nodes = G.start () in
  let p2 = (List.nth nodes 1).G.n_p in
  let result = ref true in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      result := Paxos.submit p2 [ "nope" ] <> None);
  Engine.run ~until:(Time.ms 100) sim.eng;
  Alcotest.(check bool) "backup refuses submissions" false !result

let test_pipelined_submissions () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 5);
      (* Burst without waiting: decisions must still be totally ordered. *)
      for i = 1 to 50 do
        ignore (Paxos.submit p1 [ string_of_int i ])
      done);
  Engine.run ~until:(Time.sec 2) sim.eng;
  let expected = List.init 50 (fun i -> string_of_int (i + 1)) in
  List.iter
    (fun n ->
      Alcotest.(check (list string)) (n.G.n_name ^ " ordered burst") expected
        (G.applied_log n))
    sim.nodes

let test_leader_election_on_primary_failure () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 5 do
        ignore (Paxos.submit p1 [ Printf.sprintf "a%d" i ]);
        Engine.sleep sim.eng (Time.ms 2)
      done);
  Engine.at sim.eng (Time.ms 100) (fun () -> G.kill_node sim "n1");
  (* After the election, the new primary accepts more values. *)
  Engine.at sim.eng (Time.sec 1) (fun () ->
      match G.find_primary sim with
      | Some { G.n_p = p; _ } ->
        for i = 1 to 5 do
          ignore (Paxos.submit p [ Printf.sprintf "b%d" i ])
        done
      | None -> Alcotest.fail "no new primary elected");
  Engine.run ~until:(Time.sec 3) sim.eng;
  let expected =
    List.init 5 (fun i -> Printf.sprintf "a%d" (i + 1))
    @ List.init 5 (fun i -> Printf.sprintf "b%d" (i + 1))
  in
  List.iter
    (fun n ->
      Alcotest.(check (list string)) (n.G.n_name ^ " survives failover") expected
        (G.applied_log n))
    sim.nodes;
  match G.find_primary sim with
  | Some { G.n_p = p; _ } -> (
    Alcotest.(check bool) "view advanced" true (Paxos.view p > 0);
    match (Paxos.stats p).Paxos.last_election_duration with
    | Some d ->
      (* LAN-scale election: well under a second (paper: 1.97 ms). *)
      Alcotest.(check bool) "election fast" true (d < Time.sec 1)
    | None -> Alcotest.fail "winner did not record election duration")
  | None -> Alcotest.fail "cluster has no primary"

let test_rejoin_catches_up () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 10 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.ms 1)
      done);
  (* n3 crashes early and rejoins (fresh incarnation, same WAL). *)
  Engine.at sim.eng (Time.ms 5) (fun () -> G.kill_node sim "n3");
  Engine.at sim.eng (Time.ms 500) (fun () -> ignore (G.add_node sim "n3"));
  Engine.run ~until:(Time.sec 3) sim.eng;
  match G.find sim "n3" with
  | Some { G.n_p = p3; _ } ->
    Alcotest.(check int) "rejoined node caught up" 10 (Paxos.committed p3);
    let range = Paxos.get_committed_range p3 ~lo:1 ~hi:10 in
    Alcotest.(check int) "full range recovered" 10 (List.length range)
  | None -> Alcotest.fail "n3 not present"

let test_wal_recovery () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 8 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.ms 2)
      done);
  Engine.run ~until:(Time.ms 200) sim.eng;
  (* Crash n2 after everything committed, restart from its WAL. *)
  G.kill_node sim "n2";
  let p2' = (G.add_node sim "n2").G.n_p in
  Alcotest.(check int) "committed recovered from WAL" 8 (Paxos.committed p2');
  Alcotest.(check (list string)) "values recovered"
    (List.init 8 (fun i -> Printf.sprintf "v%d" (i + 1)))
    (Paxos.get_committed_range p2' ~lo:1 ~hi:8)

(* A commit advance writes one commit marker, however many indices it
   commits: a batch of eight values commits in one [Accept_ok] round, and
   the primary's WAL grows by the eight accepts plus one marker.
   Recovery takes the highest marker, so a crash and restart of the
   primary still restores all eight. *)
let test_one_commit_marker_per_advance () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  let wal = Hashtbl.find sim.G.wals "n1" in
  let before = ref 0 in
  let values = List.init 8 (fun i -> Printf.sprintf "v%d" (i + 1)) in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      before := Crane_storage.Wal.length wal;
      ignore (Paxos.submit p1 values));
  Engine.run ~until:(Time.ms 200) sim.eng;
  Alcotest.(check int) "batch committed" 8 (Paxos.committed p1);
  Alcotest.(check int) "eight accepts and one commit marker" (8 + 1)
    (Crane_storage.Wal.length wal - !before);
  G.kill_node sim "n1";
  let p1' = (G.add_node sim "n1").G.n_p in
  Alcotest.(check int) "committed recovered from the one marker" 8 (Paxos.committed p1');
  Alcotest.(check (list string)) "values recovered" values
    (Paxos.get_committed_range p1' ~lo:1 ~hi:8)

(* The asymmetric-partition escape hatch: block traffic *into* the
   primary only.  Backups still hear its heartbeats, so they never start
   an election — the primary must notice it hears nobody for
   election_timeout and abdicate, which stops the heartbeats and lets the
   backups elect among themselves.  After the partition heals, the old
   primary adopts the new view and catches up as a backup. *)
let test_primary_abdicates_when_isolated () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 5 do
        ignore (Paxos.submit p1 [ Printf.sprintf "a%d" i ]);
        Engine.sleep sim.eng (Time.ms 2)
      done);
  Engine.at sim.eng (Time.ms 200) (fun () ->
      Fabric.partition_oneway sim.fabric ~from:[ "n2"; "n3" ] ~to_:[ "n1" ]);
  (* Mid-partition: n1 must have stepped down and a backup must lead.
     (After the heal n1 may legitimately win leadership back, so this is
     the only instant where "who leads" is pinned down.) *)
  Engine.at sim.eng (Time.ms 1500) (fun () ->
      Alcotest.(check bool) "isolated primary stepped down" false (Paxos.is_primary p1);
      Alcotest.(check int) "stepped down via abdication" 1
        (Paxos.stats p1).Paxos.abdications;
      match G.find_primary sim with
      | Some { G.n_name = name; n_p = p; _ } ->
        Alcotest.(check bool) "a backup took over" true (name <> "n1");
        Alcotest.(check bool) "view advanced past the abdication" true
          (Paxos.view p > 0)
      | None -> Alcotest.fail "no backup elected during the partition");
  Engine.at sim.eng (Time.sec 2) (fun () -> Fabric.heal sim.fabric);
  Engine.at sim.eng (Time.ms 2800) (fun () ->
      match G.find_primary sim with
      | Some { G.n_p = p; _ } ->
        for i = 1 to 5 do
          ignore (Paxos.submit p [ Printf.sprintf "b%d" i ])
        done
      | None -> Alcotest.fail "no primary after heal");
  Engine.run ~until:(Time.sec 5) sim.eng;
  Alcotest.(check int) "abdicated exactly once overall" 1
    (Paxos.stats p1).Paxos.abdications;
  (match G.find_primary sim with
  | Some { G.n_name = name; n_p = p; _ } ->
    (* Everyone, n1 included, agrees on the healed cluster's leader. *)
    List.iter
      (fun { G.n_name = n; n_p = q; _ } ->
        Alcotest.(check (option string)) (n ^ " follows the leader") (Some name)
          (if n = name then Some name else Paxos.primary q))
      sim.nodes;
    Alcotest.(check bool) "final view nonzero" true (Paxos.view p > 0)
  | None -> Alcotest.fail "cluster has no primary");
  let expected =
    List.init 5 (fun i -> Printf.sprintf "a%d" (i + 1))
    @ List.init 5 (fun i -> Printf.sprintf "b%d" (i + 1))
  in
  List.iter
    (fun n ->
      Alcotest.(check (list string)) (n.G.n_name ^ " converged after heal") expected
        (G.applied_log n))
    sim.nodes

let test_no_progress_without_quorum () =
  let sim, nodes = G.start () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.at sim.eng (Time.ms 5) (fun () ->
      G.kill_node sim "n2";
      G.kill_node sim "n3");
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 20);
      ignore (Paxos.submit p1 [ "lost" ]));
  Engine.run ~until:(Time.sec 2) sim.eng;
  Alcotest.(check int) "nothing commits without quorum" 0 (Paxos.committed p1)

(* Heartbeat retransmission repairs a batch whose acks were lost.  With
   n3 down, n2's ack is the quorum-critical one; n2 -> n1 is blocked
   (shorter than election_timeout, so nobody abdicates or elects) while a
   4-value batch is proposed.  n2 logs the batch but its range ack is
   dropped; after the heal, the primary's heartbeat re-sends one-value
   Accepts for the pending window, n2 re-acks each duplicate, and every
   index commits.  Under the [Dup_accept] mutation n2 swallows the
   duplicates instead, so the commit index stalls below the batch. *)
let run_lost_batch_acks ?(before_heal = ignore) ~mutation () =
  let sim, nodes = G.start ~config:{ G.fast_config with Paxos.wrap = Mc.wrapper mutation } () in
  let p1 = (List.hd nodes).G.n_p in
  Engine.at sim.G.eng (Time.ms 20) (fun () -> G.kill_node sim "n3");
  Engine.at sim.G.eng (Time.ms 30) (fun () ->
      Fabric.partition_oneway sim.G.fabric ~from:[ "n2" ] ~to_:[ "n1" ]);
  Engine.at sim.G.eng (Time.ms 40) (fun () ->
      Alcotest.(check (option (pair int int))) "batch takes indices 1..4" (Some (1, 4))
        (Paxos.submit p1 [ "w1"; "w2"; "w3"; "w4" ]));
  Engine.at sim.G.eng (Time.ms 180) (fun () ->
      before_heal sim;
      Fabric.heal sim.G.fabric);
  Engine.run ~until:(Time.sec 1) sim.G.eng;
  sim

let test_retransmit_repairs_lost_batch_acks () =
  let sim = run_lost_batch_acks ~mutation:Mc.No_mutation () in
  let expected = [ "w1"; "w2"; "w3"; "w4" ] in
  List.iter
    (fun n ->
      Alcotest.(check int) (n.G.n_name ^ " committed the whole batch") 4
        (Paxos.committed n.G.n_p);
      Alcotest.(check (list string)) (n.G.n_name ^ " applied the batch") expected
        (G.applied_log n))
    sim.G.nodes;
  match G.find_primary sim with
  | Some n -> Alcotest.(check string) "no election" "n1" n.G.n_name
  | None -> Alcotest.fail "cluster has no primary"

(* The retransmitted Accepts n2 receives after the heal carry the view
   and bytes it already holds, so its log arena does not grow. *)
let test_identical_retransmission_keeps_arena () =
  let n2 sim = List.find (fun n -> n.G.n_name = "n2") sim.G.nodes in
  let log_bytes sim = (Paxos.stats (n2 sim).G.n_p).Paxos.log_bytes in
  let before = ref 0 in
  let sim =
    run_lost_batch_acks ~mutation:Mc.No_mutation
      ~before_heal:(fun sim -> before := log_bytes sim)
      ()
  in
  Alcotest.(check int) "n2 committed the batch" 4 (Paxos.committed (n2 sim).G.n_p);
  if !before = 0 then Alcotest.fail "n2 held no entries before the heal";
  Alcotest.(check int) "n2's log arena unchanged by the retransmissions" !before
    (log_bytes sim)

let test_dup_accept_mutation_stalls_batch () =
  let sim = run_lost_batch_acks ~mutation:Mc.Dup_accept () in
  (* Both survivors hold the batch (pending = 4) and commit none of it. *)
  List.iter
    (fun n ->
      Alcotest.(check int) (n.G.n_name ^ " stalled below the batch") 0
        (Paxos.committed n.G.n_p);
      Alcotest.(check int) (n.G.n_name ^ " holds the batch uncommitted") 4
        (Paxos.stats n.G.n_p).Paxos.pending)
    sim.G.nodes

(* Safety under nemesis: random loss and a primary kill; the applied
   sequences on all surviving nodes must be consistent prefixes. *)
let prefix_consistent a b =
  let rec go = function
    | x :: xs, y :: ys -> x = y && go (xs, ys)
    | _, [] | [], _ -> true
  in
  go (a, b)

let run_nemesis seed =
  let sim, _ = G.start ~seed () in
  let submitted = ref 0 in
  Fabric.set_loss sim.fabric 0.02;
  Engine.spawn sim.eng ~name:"client" (fun () ->
      let rng = Rng.create (seed + 1000) in
      for i = 1 to 40 do
        Engine.sleep sim.eng (Time.ms (1 + Rng.int rng 10));
        match G.find_primary sim with
        | Some { G.n_p = p; _ } ->
          if Paxos.submit p [ Printf.sprintf "s%d-%d" seed i ] <> None then
            incr submitted
        | None -> ()
      done);
  Engine.at sim.eng (Time.ms (50 + (seed mod 100))) (fun () -> G.kill_node sim "n1");
  Engine.run ~until:(Time.sec 5) sim.eng;
  Fabric.set_loss sim.fabric 0.0;
  let logs = List.map G.applied_log sim.nodes in
  (* Pairwise prefix consistency. *)
  let ok = ref true in
  List.iteri
    (fun i a ->
      List.iteri (fun j b -> if i < j && not (prefix_consistent a b) then ok := false) logs)
    logs;
  !ok

let prop_safety_under_nemesis =
  QCheck.Test.make ~name:"applied logs are prefix-consistent under loss+crash"
    ~count:15
    QCheck.(int_range 1 10_000)
    run_nemesis

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "paxos",
      [
        Alcotest.test_case "normal-case agreement" `Quick test_normal_case_agreement;
        Alcotest.test_case "backup rejects submit" `Quick test_submit_on_backup_rejected;
        Alcotest.test_case "pipelined burst" `Quick test_pipelined_submissions;
        Alcotest.test_case "leader election" `Quick test_leader_election_on_primary_failure;
        Alcotest.test_case "rejoin catches up" `Quick test_rejoin_catches_up;
        Alcotest.test_case "isolated primary abdicates" `Quick
          test_primary_abdicates_when_isolated;
        Alcotest.test_case "wal recovery" `Quick test_wal_recovery;
        Alcotest.test_case "one commit marker per advance" `Quick
          test_one_commit_marker_per_advance;
        Alcotest.test_case "no quorum, no progress" `Quick test_no_progress_without_quorum;
        Alcotest.test_case "retransmit repairs lost batch acks" `Quick
          test_retransmit_repairs_lost_batch_acks;
        Alcotest.test_case "identical retransmission keeps the arena" `Quick
          test_identical_retransmission_keeps_arena;
        Alcotest.test_case "dup-accept mutation stalls batch" `Quick
          test_dup_accept_mutation_stalls_batch;
        qcheck prop_safety_under_nemesis;
      ] );
  ]
