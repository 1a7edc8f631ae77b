(* Tests for the PAXOS consensus component: normal-case agreement, leader
   election, catch-up, WAL recovery, and property-based safety under a
   message-loss nemesis. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos

type sim = {
  eng : Engine.t;
  fabric : Fabric.t;
  mutable nodes : (string * Paxos.t * Engine.group * string list ref) list;
  wals : (string, Wal.t) Hashtbl.t;
}

let fast_config =
  {
    Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    compaction_threshold = Crane_paxos.Paxos.default_config.compaction_threshold;
    catchup_chunk = Crane_paxos.Paxos.default_config.catchup_chunk;
    suspect_timeout = Paxos.default_config.suspect_timeout;
    lease_duration = Time.ms 150;
  }

let members = [ "n1"; "n2"; "n3" ]

let make_sim ?(seed = 11) () =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create seed) in
  { eng; fabric; nodes = []; wals = Hashtbl.create 4 }

let add_node ?(config = fast_config) sim name =
  let wal =
    match Hashtbl.find_opt sim.wals name with
    | Some w -> w
    | None ->
      let w = Wal.create sim.eng ~name in
      Hashtbl.add sim.wals name w;
      w
  in
  let group = Engine.new_group sim.eng in
  let rng = Rng.create (Hashtbl.hash name) in
  let p =
    Paxos.create ~config ~fabric:sim.fabric ~rng ~wal ~members ~node:name ~group ()
  in
  let log = ref [] in
  Paxos.set_handlers p
    { Paxos.on_commit = (fun ~index:_ v -> log := v :: !log);
      on_demote = (fun () -> ());
      on_config = (fun ~epoch:_ _ -> ());
      on_fence = (fun ~epoch:_ -> ()) };
  Paxos.start p ();
  Fabric.node_up sim.fabric name;
  sim.nodes <- sim.nodes @ [ (name, p, group, log) ];
  (p, group, log)

let start_cluster ?seed ?config () =
  let sim = make_sim ?seed () in
  let nodes = List.map (fun n -> add_node ?config:(Option.map Fun.id config) sim n) members in
  (sim, nodes)

let applied_log log = List.rev !log

let find_primary sim =
  List.find_opt (fun (_, p, _, _) -> Paxos.is_primary p) sim.nodes

let kill_node sim name =
  match List.find_opt (fun (n, _, _, _) -> n = name) sim.nodes with
  | Some (_, _, g, _) ->
    Engine.kill_group sim.eng g;
    Fabric.node_down sim.fabric name;
    sim.nodes <- List.filter (fun (n, _, _, _) -> n <> name) sim.nodes
  | None -> ()

(* ------------------------------------------------------------------ *)

let test_normal_case_agreement () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
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
    (fun (name, p, _, log) ->
      Alcotest.(check (list string)) (name ^ " applied all in order") expected
        (applied_log log);
      Alcotest.(check int) (name ^ " committed") 20 (Paxos.committed p))
    sim.nodes

let test_submit_on_backup_rejected () =
  let sim, nodes = start_cluster () in
  let _, _, _ = List.hd nodes in
  let p2 = match List.nth_opt nodes 1 with Some (p, _, _) -> p | None -> assert false in
  let result = ref true in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      result := Paxos.submit p2 [ "nope" ] <> None);
  Engine.run ~until:(Time.ms 100) sim.eng;
  Alcotest.(check bool) "backup refuses submissions" false !result

let test_pipelined_submissions () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 5);
      (* Burst without waiting: decisions must still be totally ordered. *)
      for i = 1 to 50 do
        ignore (Paxos.submit p1 [ string_of_int i ])
      done);
  Engine.run ~until:(Time.sec 2) sim.eng;
  let expected = List.init 50 (fun i -> string_of_int (i + 1)) in
  List.iter
    (fun (name, _, _, log) ->
      Alcotest.(check (list string)) (name ^ " ordered burst") expected
        (applied_log log))
    sim.nodes

let test_leader_election_on_primary_failure () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 5 do
        ignore (Paxos.submit p1 [ Printf.sprintf "a%d" i ]);
        Engine.sleep sim.eng (Time.ms 2)
      done);
  Engine.at sim.eng (Time.ms 100) (fun () -> kill_node sim "n1");
  (* After the election, the new primary accepts more values. *)
  Engine.at sim.eng (Time.sec 1) (fun () ->
      match find_primary sim with
      | Some (_, p, _, _) ->
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
    (fun (name, _, _, log) ->
      Alcotest.(check (list string)) (name ^ " survives failover") expected
        (applied_log log))
    sim.nodes;
  match find_primary sim with
  | Some (_, p, _, _) -> (
    Alcotest.(check bool) "view advanced" true (Paxos.view p > 0);
    match (Paxos.stats p).Paxos.last_election_duration with
    | Some d ->
      (* LAN-scale election: well under a second (paper: 1.97 ms). *)
      Alcotest.(check bool) "election fast" true (d < Time.sec 1)
    | None -> Alcotest.fail "winner did not record election duration")
  | None -> Alcotest.fail "cluster has no primary"

let test_rejoin_catches_up () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 10 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.ms 1)
      done);
  (* n3 crashes early and rejoins (fresh incarnation, same WAL). *)
  Engine.at sim.eng (Time.ms 5) (fun () -> kill_node sim "n3");
  Engine.at sim.eng (Time.ms 500) (fun () -> ignore (add_node sim "n3"));
  Engine.run ~until:(Time.sec 3) sim.eng;
  match List.find_opt (fun (n, _, _, _) -> n = "n3") sim.nodes with
  | Some (_, p3, _, _) ->
    Alcotest.(check int) "rejoined node caught up" 10 (Paxos.committed p3);
    let range = Paxos.get_committed_range p3 ~lo:1 ~hi:10 in
    Alcotest.(check int) "full range recovered" 10 (List.length range)
  | None -> Alcotest.fail "n3 not present"

let test_wal_recovery () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to 8 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.ms 2)
      done);
  Engine.run ~until:(Time.ms 200) sim.eng;
  (* Crash n2 after everything committed, restart from its WAL. *)
  kill_node sim "n2";
  let p2', _, _ = add_node sim "n2" in
  Alcotest.(check int) "committed recovered from WAL" 8 (Paxos.committed p2');
  Alcotest.(check (list string)) "values recovered"
    (List.init 8 (fun i -> Printf.sprintf "v%d" (i + 1)))
    (Paxos.get_committed_range p2' ~lo:1 ~hi:8)

(* The asymmetric-partition escape hatch: block traffic *into* the
   primary only.  Backups still hear its heartbeats, so they never start
   an election — the primary must notice it hears nobody for
   election_timeout and abdicate, which stops the heartbeats and lets the
   backups elect among themselves.  After the partition heals, the old
   primary adopts the new view and catches up as a backup. *)
let test_primary_abdicates_when_isolated () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
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
      match find_primary sim with
      | Some (name, p, _, _) ->
        Alcotest.(check bool) "a backup took over" true (name <> "n1");
        Alcotest.(check bool) "view advanced past the abdication" true
          (Paxos.view p > 0)
      | None -> Alcotest.fail "no backup elected during the partition");
  Engine.at sim.eng (Time.sec 2) (fun () -> Fabric.heal sim.fabric);
  Engine.at sim.eng (Time.ms 2800) (fun () ->
      match find_primary sim with
      | Some (_, p, _, _) ->
        for i = 1 to 5 do
          ignore (Paxos.submit p [ Printf.sprintf "b%d" i ])
        done
      | None -> Alcotest.fail "no primary after heal");
  Engine.run ~until:(Time.sec 5) sim.eng;
  Alcotest.(check int) "abdicated exactly once overall" 1
    (Paxos.stats p1).Paxos.abdications;
  (match find_primary sim with
  | Some (name, p, _, _) ->
    (* Everyone, n1 included, agrees on the healed cluster's leader. *)
    List.iter
      (fun (n, q, _, _) ->
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
    (fun (name, _, _, log) ->
      Alcotest.(check (list string)) (name ^ " converged after heal") expected
        (applied_log log))
    sim.nodes

let test_no_progress_without_quorum () =
  let sim, nodes = start_cluster () in
  let p1, _, _ = List.hd nodes in
  Engine.at sim.eng (Time.ms 5) (fun () ->
      kill_node sim "n2";
      kill_node sim "n3");
  Engine.spawn sim.eng ~name:"client" (fun () ->
      Engine.sleep sim.eng (Time.ms 20);
      ignore (Paxos.submit p1 [ "lost" ]));
  Engine.run ~until:(Time.sec 2) sim.eng;
  Alcotest.(check int) "nothing commits without quorum" 0 (Paxos.committed p1)

(* Safety under nemesis: random loss and a primary kill; the applied
   sequences on all surviving nodes must be consistent prefixes. *)
let prefix_consistent a b =
  let rec go = function
    | x :: xs, y :: ys -> x = y && go (xs, ys)
    | _, [] | [], _ -> true
  in
  go (a, b)

let run_nemesis seed =
  let sim, nodes = start_cluster ~seed () in
  let submitted = ref 0 in
  Fabric.set_loss sim.fabric 0.02;
  Engine.spawn sim.eng ~name:"client" (fun () ->
      let rng = Rng.create (seed + 1000) in
      for i = 1 to 40 do
        Engine.sleep sim.eng (Time.ms (1 + Rng.int rng 10));
        match find_primary sim with
        | Some (_, p, _, _) ->
          if Paxos.submit p [ Printf.sprintf "s%d-%d" seed i ] <> None then
            incr submitted
        | None -> ()
      done);
  let p1, _, _ = List.hd nodes in
  ignore p1;
  Engine.at sim.eng (Time.ms (50 + (seed mod 100))) (fun () -> kill_node sim "n1");
  Engine.run ~until:(Time.sec 5) sim.eng;
  Fabric.set_loss sim.fabric 0.0;
  let logs = List.map (fun (_, _, _, log) -> applied_log log) sim.nodes in
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
        Alcotest.test_case "no quorum, no progress" `Quick test_no_progress_without_quorum;
        qcheck prop_safety_under_nemesis;
      ] );
  ]
