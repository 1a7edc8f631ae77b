(* Tests for the read fast path: heartbeat-anchored leader leases at the
   raw PAXOS level (grant, expiry, revocation on demote and during
   reconfiguration), and the proxy read port end-to-end — lease reads on
   the primary, bounded-stale watermarked reads on backups, and write
   outputs staying byte-identical with the fast path on vs off. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Sock = Crane_socket.Sock
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Api = Crane_core.Api
module Proxy = Crane_core.Proxy
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Loadgen = Crane_workload.Loadgen
module Ledger = Crane_chaos.Ledger

(* ------------------------------------------------------------------ *)
(* Raw-paxos harness. *)

module G = Paxos_group

let fast_config = { G.fast_config with Paxos.suspect_timeout = Time.ms 450 }
let boot_members = [ "n1"; "n2"; "n3" ]
let start_cluster ?(seed = 7) () = G.start ~seed ~config:fast_config ()

(* ------------------------------------------------------------------ *)
(* Lease lifecycle at the raw PAXOS level. *)

let test_lease_granted_to_stable_primary () =
  let sim, _ = start_cluster () in
  Engine.run ~until:(Time.sec 1) sim.eng;
  match G.find_primary sim with
  | None -> Alcotest.fail "no primary after 1 s"
  | Some pr ->
    Alcotest.(check bool) "stable primary holds a valid lease" true
      (Paxos.lease_valid pr.n_p);
    Alcotest.(check bool) "at least one grant recorded" true
      ((Paxos.stats pr.n_p).Paxos.leases_held >= 1);
    List.iter
      (fun nr ->
        if nr.G.n_name <> pr.n_name then
          Alcotest.(check bool) (nr.n_name ^ " backup holds no lease") false
            (Paxos.lease_valid nr.n_p))
      sim.nodes

let test_lease_expires_without_ack_quorum () =
  let sim, _ = start_cluster () in
  let the_primary = ref None in
  Engine.at sim.eng (Time.sec 1) (fun () ->
      match G.find_primary sim with
      | None -> ()
      | Some pr ->
        the_primary := Some pr;
        Alcotest.(check bool) "lease valid before the backups die" true
          (Paxos.lease_valid pr.n_p);
        (* Kill both backups: heartbeats go unacknowledged, so the lease
           must lapse within lease_duration of the last granted round. *)
        List.iter
          (fun nr -> if nr.G.n_name <> pr.n_name then G.kill_node sim nr.n_name)
          sim.nodes);
  Engine.run ~until:(Time.ms 1600) sim.eng;
  match !the_primary with
  | None -> Alcotest.fail "no primary at 1 s"
  | Some pr ->
    Alcotest.(check bool) "lease lapsed with no ack quorum" false
      (Paxos.lease_valid pr.n_p)

(* Partition the lease holder away: a new primary must be elected and
   take over the lease, the old one must lose it — and at no sampled
   instant may two nodes hold a valid lease at once (the whole safety
   claim of lease reads). *)
let test_lease_exclusive_across_view_change () =
  let sim, _ = start_cluster () in
  let old_primary = ref None in
  let double_lease = ref None in
  let rec sampler () =
    Engine.after sim.eng (Time.ms 10) (fun () ->
        (match
           List.filter (fun nr -> Paxos.lease_valid nr.G.n_p) sim.nodes
         with
        | _ :: _ :: _ when !double_lease = None ->
          double_lease := Some (Time.to_string (Engine.now sim.eng))
        | _ -> ());
        if Engine.now sim.eng < Time.sec 3 then sampler ())
  in
  sampler ();
  Engine.at sim.eng (Time.sec 1) (fun () ->
      match G.find_primary sim with
      | None -> ()
      | Some pr ->
        old_primary := Some pr;
        let rest =
          List.filter (fun n -> n <> pr.n_name) (List.map (fun nr -> nr.G.n_name) sim.nodes)
        in
        Fabric.partition sim.fabric [ pr.n_name ] rest);
  (* Mid-partition: the majority side must have elected a new primary
     that took over the lease, and the isolated ex-primary's lease must
     have lapsed (it cannot renew without an ack quorum). *)
  Engine.at sim.eng (Time.sec 2) (fun () ->
      match !old_primary with
      | None -> ()
      | Some old ->
        Alcotest.(check bool) "isolated ex-primary's lease lapsed" false
          (Paxos.lease_valid old.n_p);
        let fresh =
          List.find_opt
            (fun nr -> nr.G.n_name <> old.n_name && Paxos.is_primary nr.n_p)
            sim.nodes
        in
        (match fresh with
        | None -> Alcotest.fail "majority side elected no primary"
        | Some pr ->
          Alcotest.(check bool) "new primary took over the lease" true
            (Paxos.lease_valid pr.n_p)));
  Engine.at sim.eng (Time.ms 2200) (fun () -> Fabric.heal sim.fabric);
  Engine.run ~until:(Time.sec 3) sim.eng;
  Alcotest.(check (option string)) "never two valid leases at once" None !double_lease;
  if !old_primary = None then Alcotest.fail "no primary at 1 s";
  (match G.find_primary sim with
  | None -> Alcotest.fail "no primary after heal"
  | Some pr ->
    Alcotest.(check bool) "settled primary holds the lease" true
      (Paxos.lease_valid pr.n_p);
    List.iter
      (fun nr ->
        if nr.G.n_name <> pr.n_name then
          Alcotest.(check bool) (nr.n_name ^ " holds no lease after heal") false
            (Paxos.lease_valid nr.n_p))
      sim.nodes)

(* A pending reconfiguration suspends the lease (reads could straddle
   the joint-quorum window); activation revokes it, and the next
   heartbeat round under the new epoch re-grants. *)
let test_reconfig_suspends_then_regrants_lease () =
  let sim, nodes = start_cluster () in
  let p1 = (List.hd nodes).n_p in
  let grown = boot_members @ [ "n4" ] in
  Engine.spawn sim.eng ~name:"admin" (fun () ->
      Engine.sleep sim.eng (Time.sec 1);
      Alcotest.(check bool) "lease valid before the reconfig" true
        (Paxos.lease_valid p1);
      (match Paxos.submit_reconfig p1 grown with
      | Some _ -> ()
      | None -> Alcotest.fail "primary refused a valid reconfig");
      Alcotest.(check bool) "lease suspended while the change is pending" false
        (Paxos.lease_valid p1);
      while Paxos.epoch p1 < 1 do
        Engine.sleep sim.eng (Time.ms 20)
      done;
      ignore (G.add_node ~members:grown sim "n4"));
  Engine.run ~until:(Time.sec 3) sim.eng;
  Alcotest.(check int) "epoch advanced" 1 (Paxos.epoch p1);
  Alcotest.(check bool) "lease re-granted under the new epoch" true
    (Paxos.lease_valid p1)

(* ------------------------------------------------------------------ *)
(* End-to-end through the proxy read port (cluster level). *)

let cluster_cfg =
  { Instance.default_config with mode = Instance.Paxos_only; paxos = fast_config }

(* A single-node read-port target (no failover: the test wants to know
   exactly which replica answered). *)
let node_target cluster node =
  {
    Target.eng = Cluster.engine cluster;
    world = Cluster.world cluster;
    port = cluster_cfg.Instance.read_port;
    pick_node = (fun () -> node);
    fallbacks = (fun () -> [ node ]);
  }

let served = function
  | Some (Proxy.Served r) -> r
  | Some Proxy.Rejected -> Alcotest.fail "fast read rejected"
  | Some Proxy.Write_required -> Alcotest.fail "GET classified as a write"
  | None -> Alcotest.fail "fast read transport failure"

let test_lease_and_backup_reads_end_to_end () =
  let cluster = Cluster.create ~seed:9 ~cfg:cluster_cfg ~server:Ledger.server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  Engine.spawn eng ~name:"driver" (fun () ->
      Engine.sleep eng (Time.ms 600);
      let primary () =
        match Cluster.primary_node cluster with
        | Some p -> p
        | None -> Alcotest.fail "no primary"
      in
      let backup () =
        match Cluster.backup_nodes cluster with
        | b :: _ -> b
        | [] -> Alcotest.fail "no backup"
      in
      let wm_seen = Hashtbl.create 4 in
      for i = 1 to 8 do
        (match Ledger.request ledger target ~from:"t" with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "PUT %d failed" i));
        (* Linearizable read on the lease holder: every acked write must
           already be visible. *)
        let r = served (Ledger.fast_get (node_target cluster (primary ())) ~from:"t") in
        Alcotest.(check bool) "primary served in lease mode" true
          (r.Proxy.mode = `Lease);
        let ids = Ledger.ids_of_reply r.Proxy.value in
        List.iter
          (fun id ->
            Alcotest.(check bool) (id ^ " visible to the lease read") true
              (List.mem id ids))
          (Ledger.acked_ids ledger);
        (* Bounded-stale read on a backup: watermark monotone per node,
           content within the acked set (prefix property is checked by
           the chaos invariant; here we pin the mode and the watermark). *)
        let b = backup () in
        let rb = served (Ledger.fast_get (node_target cluster b) ~from:"t") in
        (match rb.Proxy.mode with
        | `Backup stale -> Alcotest.(check bool) "staleness non-negative" true (stale >= 0)
        | `Lease -> Alcotest.fail "backup answered in lease mode");
        (match Hashtbl.find_opt wm_seen b with
        | Some prev ->
          Alcotest.(check bool) "backup watermark monotone" true
            (rb.Proxy.watermark >= prev)
        | None -> ());
        Hashtbl.replace wm_seen b rb.Proxy.watermark;
        Engine.sleep eng (Time.ms 30)
      done);
  Cluster.run ~until:(Time.sec 4) cluster;
  Cluster.check_failures cluster;
  (* The proxies actually counted fast-path traffic. *)
  let sum f =
    List.fold_left
      (fun acc (_, inst) -> acc + f (Proxy.stats inst.Instance.proxy))
      0 (Cluster.instances cluster)
  in
  Alcotest.(check bool) "lease reads served" true
    (sum (fun s -> s.Proxy.lease_reads) >= 8);
  Alcotest.(check bool) "backup reads served" true
    (sum (fun s -> s.Proxy.backup_reads) >= 8)

(* Toggling the fast path must not perturb the consensus write path:
   same seed, same write-only workload, byte-identical per-replica
   output logs with the read port on vs off. *)
let test_write_outputs_identical_fastpath_on_off () =
  let run_once ~fastpath =
    let cfg = { cluster_cfg with Instance.read_fastpath = fastpath } in
    let cluster = Cluster.create ~seed:11 ~cfg ~server:Ledger.server () in
    Cluster.start ~checkpoints:false cluster;
    let target = Target.cluster cluster ~port:80 in
    let ledger = Ledger.client () in
    let handle =
      Loadgen.run ~name:"w" ~seed:11 ~think:(Time.ms 10) ~retries:4
        ~retry_backoff:(Time.ms 100) ~clients:3 ~requests:30
        ~request:(Ledger.request ledger) target
    in
    Loadgen.drive ~timeout:(Time.sec 60) target handle;
    Cluster.run ~until:(Engine.now (Cluster.engine cluster) + Time.ms 500) cluster;
    Cluster.check_failures cluster;
    List.sort compare
      (List.map
         (fun (n, o) -> (n, Output_log.render ~strip_times:false o))
         (Cluster.outputs cluster))
  in
  let on = run_once ~fastpath:true in
  let off = run_once ~fastpath:false in
  Alcotest.(check (list (pair string string)))
    "write outputs byte-identical with the fast path on vs off" off on

(* Regression: an abruptly killed client (thread death, no FIN, no Close
   through consensus) with admissions still in flight must not pin the
   read watermark.  Per-connection in-flight tracking has to drain on
   the worker's own quiescence/close paths, or every later backup read
   stays conservatively stale forever. *)
let test_watermark_advances_past_killed_client () =
  let cfg =
    { cluster_cfg with Instance.mode = Instance.Full; pool_workers = 4 }
  in
  let cluster = Cluster.create ~seed:13 ~cfg ~server:Ledger.server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port:80 in
  let victim_group = Engine.new_group eng in
  (* Victim: fire-and-forget PUT burst, never reads replies. *)
  Engine.spawn eng ~group:victim_group ~name:"victim" (fun () ->
      Engine.sleep eng (Time.ms 600);
      match Target.connect target ~from:"victim" with
      | None -> ()
      | Some conn ->
        for i = 1 to 200 do
          (try Sock.send conn (Printf.sprintf "PUT v%d\n" i)
           with Sock.Connection_closed -> ());
          Engine.sleep eng (Time.ms 1)
        done);
  let committed_at_kill = ref (-1) in
  Engine.at eng (Time.ms 650) (fun () ->
      (* Mid-burst, with admitted-but-unretired commands on the wire. *)
      Engine.kill_group eng victim_group;
      match Cluster.primary cluster with
      | Some (_, inst) ->
        committed_at_kill := Paxos.committed inst.Instance.paxos
      | None -> ());
  let ledger = Ledger.client () in
  let final_wm = ref (-1) in
  Engine.spawn eng ~name:"survivor" (fun () ->
      Engine.sleep eng (Time.ms 800);
      for i = 1 to 6 do
        (match Ledger.request ledger target ~from:"surv" with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "post-kill PUT %d failed" i));
        Engine.sleep eng (Time.ms 30)
      done;
      Engine.sleep eng (Time.ms 400);
      let b =
        match Cluster.backup_nodes cluster with
        | b :: _ -> b
        | [] -> Alcotest.fail "no backup"
      in
      let r = served (Ledger.fast_get (node_target cluster b) ~from:"surv") in
      final_wm := r.Proxy.watermark);
  Cluster.run ~until:(Time.ms 2800) cluster;
  Cluster.check_failures cluster;
  if !committed_at_kill < 0 then Alcotest.fail "no primary at kill time";
  if !final_wm < 0 then Alcotest.fail "backup read never answered";
  Alcotest.(check bool)
    (Printf.sprintf "watermark %d advanced past kill-time commit %d"
       !final_wm !committed_at_kill)
    true
    (!final_wm > !committed_at_kill)

(* ------------------------------------------------------------------ *)
(* The read envelope on the wire. *)

(* Random replies of every kind; served values are arbitrary bytes,
   newlines included, since the envelope is length-prefixed. *)
let arb_read_reply =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_bound 48) in
  let served =
    let* value = bytes in
    let* epoch = nat in
    let* watermark = nat in
    let* mode = oneof [ return `Lease; map (fun s -> `Backup s) nat ] in
    return (Proxy.Served { Proxy.value; mode; epoch; watermark })
  in
  QCheck.make
    ~print:(fun r -> String.escaped (Proxy.encode_read_reply r))
    (frequency
       [ (1, return Proxy.Rejected); (1, return Proxy.Write_required);
         (6, served) ])

(* A reply followed by anything parses back to itself and leaves exactly
   what followed it; every strict prefix of a reply is incomplete. *)
let prop_read_envelope =
  QCheck.Test.make ~name:"read envelope: parse inverts encode, prefixes incomplete"
    ~count:500
    QCheck.(pair arb_read_reply (string_gen_of_size (Gen.int_bound 16) Gen.char))
    (fun (r, tail) ->
      let enc = Proxy.encode_read_reply r in
      Proxy.parse_read_reply (enc ^ tail) = Some (r, tail)
      && List.for_all
           (fun k -> Proxy.parse_read_reply (String.sub enc 0 k) = None)
           (List.init (String.length enc) Fun.id))

(* A negative length in a served header is malformed, not a short read:
   it parses as [Rejected] and consumes only the header line. *)
let test_negative_length_rejected () =
  let check name buf rest =
    Alcotest.(check bool) name true
      (Proxy.parse_read_reply buf = Some (Proxy.Rejected, rest))
  in
  check "lease" "LEASE 1 2 -1\nabc" "abc";
  check "stale" "STALE 1 2 3 -1\nabc" "abc"

let suite =
  [
    ( "reads",
      [
        Alcotest.test_case "lease granted to stable primary" `Quick
          test_lease_granted_to_stable_primary;
        Alcotest.test_case "lease expires without ack quorum" `Quick
          test_lease_expires_without_ack_quorum;
        Alcotest.test_case "lease exclusive across view change" `Quick
          test_lease_exclusive_across_view_change;
        Alcotest.test_case "reconfig suspends then regrants lease" `Quick
          test_reconfig_suspends_then_regrants_lease;
        Alcotest.test_case "lease and backup reads end to end" `Quick
          test_lease_and_backup_reads_end_to_end;
        Alcotest.test_case "write outputs identical fastpath on/off" `Quick
          test_write_outputs_identical_fastpath_on_off;
        Alcotest.test_case "watermark advances past killed client" `Quick
          test_watermark_advances_past_killed_client;
        Alcotest.test_case "negative value length rejected" `Quick
          test_negative_length_rejected;
        QCheck_alcotest.to_alcotest prop_read_envelope;
      ] );
  ]
