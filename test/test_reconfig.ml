(* Tests for live membership reconfiguration: Reconfig entries through
   consensus (joint quorum, epochs, fencing of removed replicas) at the
   raw PAXOS level, and the Cluster add/remove/replace/autoheal APIs
   end-to-end. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Api = Crane_core.Api
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster

(* ------------------------------------------------------------------ *)
(* Raw-paxos harness: joiners boot with the configuration that admitted
   them. *)

module G = Paxos_group

let fast_config = { G.fast_config with Paxos.suspect_timeout = Time.ms 450 }
let boot_members = [ "n1"; "n2"; "n3" ]
let start_cluster ?(seed = 7) () = G.start ~seed ~config:fast_config ()

let sorted = List.sort compare

(* ------------------------------------------------------------------ *)

let test_add_replica_through_consensus () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  let grown = boot_members @ [ "n4" ] in
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.ms 50);
      (match Paxos.submit_reconfig p1 grown with
      | Some _ -> ()
      | None -> Alcotest.fail "primary refused a valid reconfig");
      (* Boot the joiner only after the new configuration is in force on
         the primary — the Cluster driver's ordering. *)
      while Paxos.epoch p1 < 1 do
        Engine.sleep sim.eng (Time.ms 20)
      done;
      ignore (G.add_node ~members:grown sim "n4");
      Engine.sleep sim.eng (Time.ms 300);
      for i = 1 to 5 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ])
      done);
  Engine.run ~until:(Time.sec 3) sim.eng;
  List.iter
    (fun nr ->
      Alcotest.(check int) (nr.G.n_name ^ " reached epoch 1") 1 (Paxos.epoch nr.n_p);
      Alcotest.(check (list string)) (nr.n_name ^ " sees grown membership")
        (sorted grown)
        (sorted (Paxos.members nr.n_p)))
    sim.nodes;
  (match List.find_opt (fun nr -> nr.G.n_name = "n4") sim.nodes with
  | Some nr ->
    Alcotest.(check (list string)) "joiner applied post-join commits"
      (List.init 5 (fun i -> Printf.sprintf "v%d" (i + 1)))
      (List.rev !(nr.n_log));
    Alcotest.(check (list (pair int (list string)))) "joiner activated exactly epoch 1"
      [ (1, grown) ] !(nr.n_configs)
  | None -> Alcotest.fail "n4 missing");
  Alcotest.(check bool) "no reconfig left pending" false (Paxos.reconfig_pending p1)

let test_reconfig_refusals () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  let p2 = (List.nth nodes 1).n_p in
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.ms 50);
      Alcotest.(check bool) "backup refuses reconfig" true
        (Paxos.submit_reconfig p2 (boot_members @ [ "n4" ]) = None);
      Alcotest.(check bool) "no-op membership refused" true
        (Paxos.submit_reconfig p1 boot_members = None);
      Alcotest.(check bool) "first real change accepted" true
        (Paxos.submit_reconfig p1 (boot_members @ [ "n4" ]) <> None);
      (* The joint-quorum window is still open: a second change must wait. *)
      Alcotest.(check bool) "overlapping reconfig refused" true
        (Paxos.submit_reconfig p1 (boot_members @ [ "n5" ]) = None);
      Alcotest.(check bool) "window visible" true (Paxos.reconfig_pending p1));
  Engine.run ~until:(Time.sec 1) sim.eng;
  Alcotest.(check int) "the accepted change activated" 1 (Paxos.epoch p1)

let test_removed_replica_fenced () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  let n3 = List.nth nodes 2 in
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.ms 50);
      ignore (Paxos.submit_reconfig p1 [ "n1"; "n2" ]);
      Engine.sleep sim.eng (Time.sec 1);
      (* The shrunken cluster keeps committing without n3's vote. *)
      for i = 1 to 3 do
        ignore (Paxos.submit p1 [ Printf.sprintf "w%d" i ])
      done);
  Engine.run ~until:(Time.sec 3) sim.eng;
  Alcotest.(check int) "survivors at epoch 1" 1 (Paxos.epoch p1);
  Alcotest.(check (list string)) "membership shrank" [ "n1"; "n2" ]
    (sorted (Paxos.members p1));
  Alcotest.(check bool) "removed replica knows it is fenced" true
    (Paxos.fenced n3.n_p);
  Alcotest.(check (option int)) "fence carries the removing epoch" (Some 1)
    !(n3.n_fenced_at);
  Alcotest.(check int) "two-node quorum still commits" 3
    (List.length !((List.hd nodes).n_log))

let test_joint_quorum_blocks_without_old_majority () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  Engine.at sim.eng (Time.ms 60) (fun () ->
      G.kill_node sim "n2";
      G.kill_node sim "n3");
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.ms 100);
      (* n1 alone is a majority of neither the old {n1,n2,n3} nor the new
         {n1,n4,n5} configuration: the Reconfig must stay pending. *)
      ignore (Paxos.submit_reconfig p1 [ "n1"; "n4"; "n5" ]));
  Engine.run ~until:(Time.sec 2) sim.eng;
  Alcotest.(check int) "epoch frozen without joint quorum" 0 (Paxos.epoch p1);
  Alcotest.(check bool) "reconfig stuck pending" true (Paxos.reconfig_pending p1)

let test_joint_quorum_spans_dead_member () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  Engine.at sim.eng (Time.ms 60) (fun () -> G.kill_node sim "n3");
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.ms 100);
      (* Swapping the dead n3 for n4 needs {n1,n2} — a majority of the old
         config AND of the new {n1,n2,n4} even before n4 boots. *)
      ignore (Paxos.submit_reconfig p1 [ "n1"; "n2"; "n4" ]));
  Engine.run ~until:(Time.sec 2) sim.eng;
  Alcotest.(check int) "swap committed with the dead node down" 1 (Paxos.epoch p1);
  Alcotest.(check (list string)) "membership swapped" [ "n1"; "n2"; "n4" ]
    (sorted (Paxos.members p1))

(* ------------------------------------------------------------------ *)
(* Cluster-level: the management APIs drive the same machinery through
   a real instance stack (proxy + DMT + checkpoint harness). *)

let null_server : Api.server =
  {
    Api.name = "null";
    install = (fun _ -> ());
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        ignore (R.mutex ());
        Api.handle ~name:"null"
          ~state_of:(fun () -> "")
          ~load_state:(fun _ -> ())
          ~mem_bytes:(fun () -> 1_000)
          ~stop:(fun () -> ())
          ());
  }

let cluster_cfg =
  { Instance.default_config with mode = Instance.Paxos_only; paxos = fast_config }

let live_epochs cluster =
  List.map
    (fun (n, inst) -> (n, (Paxos.stats inst.Instance.paxos).Paxos.epoch))
    (Cluster.instances cluster)

let test_cluster_replace_replica () =
  let cluster = Cluster.create ~seed:5 ~cfg:cluster_cfg ~server:null_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  Engine.at eng (Time.ms 300) (fun () -> Cluster.kill cluster "replica3");
  Engine.at eng (Time.ms 500) (fun () ->
      Cluster.replace_replica cluster ~dead:"replica3" ~fresh:"replica4");
  Cluster.run ~until:(Time.sec 5) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check (list string)) "cluster membership swapped"
    [ "replica1"; "replica2"; "replica4" ]
    (sorted (Cluster.members cluster));
  Alcotest.(check int) "cluster tracked the epoch" 1 (Cluster.current_epoch cluster);
  Alcotest.(check bool) "replacement instance running" true
    (Cluster.instance cluster "replica4" <> None);
  List.iter
    (fun (n, e) -> Alcotest.(check int) (n ^ " at epoch 1") 1 e)
    (live_epochs cluster)

let test_cluster_autoheal_replaces_crashed () =
  let cluster = Cluster.create ~seed:6 ~cfg:cluster_cfg ~server:null_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  Cluster.enable_autoheal cluster;
  Engine.at eng (Time.ms 500) (fun () -> Cluster.kill cluster "replica2");
  Cluster.run ~until:(Time.sec 6) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check (list string)) "detector swapped in a fresh replica"
    [ "auto1"; "replica1"; "replica3" ]
    (sorted (Cluster.members cluster));
  Alcotest.(check int) "exactly one automatic reconfiguration" 1
    (Cluster.current_epoch cluster);
  Alcotest.(check bool) "fresh replica running" true
    (Cluster.instance cluster "auto1" <> None)

let suite =
  [
    ( "reconfig",
      [
        Alcotest.test_case "add replica through consensus" `Quick
          test_add_replica_through_consensus;
        Alcotest.test_case "reconfig refusals" `Quick test_reconfig_refusals;
        Alcotest.test_case "removed replica fenced" `Quick test_removed_replica_fenced;
        Alcotest.test_case "joint quorum blocks without old majority" `Quick
          test_joint_quorum_blocks_without_old_majority;
        Alcotest.test_case "joint quorum spans dead member" `Quick
          test_joint_quorum_spans_dead_member;
        Alcotest.test_case "cluster replace replica" `Quick test_cluster_replace_replica;
        Alcotest.test_case "cluster autoheal replaces crashed" `Quick
          test_cluster_autoheal_replaces_crashed;
      ] );
  ]
