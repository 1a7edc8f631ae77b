(* Tests for dependency-aware parallel delivery: DMT lane routing
   (signal ?lane re-laning and relane self-migration), pool-mode cluster
   convergence with the conflict-serializability certifier run on the
   realized trace, state equivalence across pool widths, the
   certifier's verdicts on synthetic schedules (true positive and true
   negative), and idle turns computing the same whether the engine
   steps them or applies them in closed form. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Dmt = Crane_dmt.Dmt
module Paxos = Crane_paxos.Paxos
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Target = Crane_workload.Target
module Loadgen = Crane_workload.Loadgen
module Trace = Crane_trace.Trace
module Certifier = Crane_analysis.Certifier
module Critical_path = Crane_trace.Critical_path
module Ledger = Crane_chaos.Ledger
module Vhost = Crane_core.Vhost
module Output_log = Crane_core.Output_log
module Sock = Crane_socket.Sock
module Clients = Crane_workload.Clients

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* DMT lanes *)

(* The two lane-placement paths the pool gate uses: [signal ?lane] moves
   a parked waiter into the command's lane, and [relane] lets a worker
   that never parked (bytes pushed before its first recv) migrate
   itself.  Both must leave the thread holding the target lane's turn. *)
let test_dmt_lane_routing () =
  let eng = Engine.create () in
  let dmt = Dmt.create ~lanes:3 eng in
  let obj = Dmt.new_obj dmt in
  let lanes_seen = ref [] in
  Dmt.spawn dmt ~name:"worker" (fun () ->
      Dmt.get_turn dmt;
      lanes_seen := Dmt.current_lane dmt :: !lanes_seen;
      Dmt.wait dmt ~obj;
      (* resumed by the gate's signal ~lane:2 — re-laned while parked *)
      lanes_seen := Dmt.current_lane dmt :: !lanes_seen;
      Dmt.relane dmt ~lane:1;
      lanes_seen := Dmt.current_lane dmt :: !lanes_seen;
      (* relane to the lane we're already in is a no-op *)
      Dmt.relane dmt ~lane:1;
      lanes_seen := Dmt.current_lane dmt :: !lanes_seen;
      Dmt.put_turn dmt);
  Dmt.spawn dmt ~name:"gate" (fun () ->
      Dmt.get_turn dmt;
      Dmt.signal ~lane:2 dmt ~obj;
      Dmt.put_turn dmt);
  Engine.at eng (Time.ms 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check (list int))
    "spawned on 0, signalled into 2, self-migrated to 1" [ 0; 2; 1; 1 ]
    (List.rev !lanes_seen)

(* Lanes rotate independently: threads signalled into different lanes no
   longer pay each other's turn costs, so their op interleaving is free
   per lane while each lane stays round-robin within itself. *)
let test_dmt_lanes_independent () =
  let eng = Engine.create () in
  let dmt = Dmt.create ~lanes:3 eng in
  let per_lane_order = Hashtbl.create 4 in
  let record lane tag =
    let l = Option.value (Hashtbl.find_opt per_lane_order lane) ~default:[] in
    Hashtbl.replace per_lane_order lane (tag :: l)
  in
  for i = 1 to 4 do
    let lane = 1 + ((i - 1) mod 2) in
    Dmt.spawn dmt ~name:(Printf.sprintf "w%d" i) (fun () ->
        Dmt.get_turn dmt;
        Dmt.relane dmt ~lane;
        for _ = 1 to 3 do
          record (Dmt.current_lane dmt) i;
          Dmt.put_turn dmt;
          Dmt.get_turn dmt
        done;
        Dmt.put_turn dmt)
  done;
  Engine.at eng (Time.ms 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  (* within each lane the two residents strictly alternate *)
  List.iter
    (fun (lane, a, b) ->
      Alcotest.(check (list int))
        (Printf.sprintf "lane %d round-robin" lane)
        [ a; b; a; b; a; b ]
        (List.rev
           (Option.value (Hashtbl.find_opt per_lane_order lane) ~default:[])))
    [ (1, 1, 3); (2, 2, 4) ]

(* ------------------------------------------------------------------ *)
(* Pool-mode cluster *)

let fast_config =
  {
    Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    suspect_timeout = Time.ms 450;
    lease_duration = Time.ms 150;
  }

let pool_cfg workers =
  {
    Instance.default_config with
    mode = Instance.Full;
    pool_workers = workers;
    paxos = fast_config;
  }

(* Drive a seeded closed-loop ledger workload and give the backups time
   to replay; returns the cluster plus the client's acked-write record. *)
let run_pool_workload ?trace ?(server = Ledger.server) ~seed ~workers () =
  let cluster = Cluster.create ~seed ~cfg:(pool_cfg workers) ?trace ~server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"w" ~seed ~think:(Time.ms 5) ~retries:4
      ~retry_backoff:(Time.ms 100) ~clients:4 ~requests:48
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 60) target handle;
  let load = handle.Loadgen.collect () in
  (* replicas replay through the DMT at simulated compute speed: poll at
     bounded virtual-time steps until every live ledger agrees *)
  let converged () =
    match Cluster.instances cluster with
    | [] -> false
    | (_, i0) :: rest ->
      let s0 = i0.Instance.handle.Crane_core.Api.state_of () in
      List.for_all
        (fun (_, i) -> i.Instance.handle.Crane_core.Api.state_of () = s0)
        rest
  in
  let deadline = Engine.now eng + Time.sec 20 in
  while (not (converged ())) && Engine.now eng < deadline do
    Cluster.run ~until:(Engine.now eng + Time.ms 100) cluster
  done;
  Cluster.check_failures cluster;
  (cluster, ledger, load)

let states cluster =
  List.map
    (fun (n, i) -> (n, i.Instance.handle.Crane_core.Api.state_of ()))
    (Cluster.instances cluster)

(* A 4-worker pool must converge every replica to one state holding every
   acked write, with zero hard errors — and the realized schedule must
   pass the conflict-serializability certifier (execute windows actually
   opened, so the check is not vacuous). *)
let test_pool_convergence_certified () =
  let trace = Trace.create ~retain:false () in
  let cert = Certifier.attach trace in
  let cluster, ledger, load = run_pool_workload ~trace ~seed:23 ~workers:4 () in
  Alcotest.(check int) "no hard errors" 0 load.Loadgen.errors;
  (match states cluster with
  | [] -> Alcotest.fail "no live replicas"
  | (_, s0) :: rest ->
    List.iter
      (fun (n, s) -> Alcotest.(check string) (n ^ " converged") s0 s)
      rest;
    let ids = Ledger.ids_of_state s0 in
    List.iter
      (fun id ->
        Alcotest.(check bool) (id ^ " durable") true (List.mem id ids))
      (Ledger.acked_ids ledger));
  let r = Certifier.report cert in
  Alcotest.(check bool) "execute windows recorded" true (r.Certifier.windows > 0);
  Alcotest.(check bool) "commands indexed" true (r.Certifier.commands > 0);
  Alcotest.(check (list string)) "conflict-serializable" []
    (List.map
       (fun v -> v.Certifier.v_loc ^ ":" ^ v.Certifier.v_kind)
       r.Certifier.violations)

(* The passes attached to a recorder and a replay of what it retained see
   the same events, so the critical path and the certifier must report
   alike (and [report] leaves the state as it found it). *)
let test_sinks_equal_replay () =
  let trace = Trace.create () in
  let cp = Critical_path.attach trace and cert = Certifier.attach trace in
  ignore (run_pool_workload ~trace ~seed:23 ~workers:4 ());
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped trace);
  let replayed = Critical_path.analyze trace in
  Alcotest.(check string) "critical path renders alike" (Critical_path.render replayed)
    (Critical_path.render (Critical_path.report cp));
  Alcotest.(check bool) "critical path reports equal" true
    (Critical_path.report cp = replayed);
  let replayed =
    Certifier.check_events (Trace.events trace) ~resolve_node:(Trace.resolve_node trace)
  in
  Alcotest.(check bool) "execute windows seen" true (replayed.Certifier.windows > 0);
  Alcotest.(check string) "certifier renders alike" (Certifier.render replayed)
    (Certifier.render (Certifier.report cert));
  Alcotest.(check bool) "certifier reports equal" true (Certifier.report cert = replayed)

(* Pool width must not change what the state machine computes: the same
   seeded workload against 1 worker and 4 workers ends in the same
   committed ledger content on every replica. *)
let test_pool_state_equivalent_across_widths () =
  let content ~workers =
    let cluster, _, load = run_pool_workload ~seed:29 ~workers () in
    Alcotest.(check int) "no hard errors" 0 load.Loadgen.errors;
    match states cluster with
    | [] -> Alcotest.fail "no live replicas"
    | (_, s0) :: _ -> List.sort compare (Ledger.ids_of_state s0)
  in
  let serial = content ~workers:1 in
  let pooled = content ~workers:4 in
  Alcotest.(check (list string)) "same committed content, pool on vs off"
    serial pooled

(* The pool gate classifies each decided command once, however many
   admission scans see it wait: the server's [footprint] runs exactly
   once per decided Send on every replica.  Counting the calls changes
   nothing the cluster computes. *)
let test_pool_footprint_once () =
  let counts = ref [] in
  let counted =
    {
      Ledger.server with
      Crane_core.Api.boot =
        (fun api ->
          let h = Ledger.server.Crane_core.Api.boot api in
          let n = ref 0 in
          counts := n :: !counts;
          {
            h with
            Crane_core.Api.footprint =
              (fun line ->
                incr n;
                h.Crane_core.Api.footprint line);
          });
    }
  in
  let trace = Trace.create () in
  let cert = Certifier.attach trace in
  let cluster, _, load =
    run_pool_workload ~trace ~server:counted ~seed:23 ~workers:4 ()
  in
  let plain_trace = Trace.create ~retain:false () in
  let plain_cert = Certifier.attach plain_trace in
  let plain, _, _ = run_pool_workload ~trace:plain_trace ~seed:23 ~workers:4 () in
  Alcotest.(check int) "no hard errors" 0 load.Loadgen.errors;
  let sends =
    List.length
      (List.filter
         (fun (e : Trace.ev) ->
           match e.Trace.event with
           | Trace.Proposed { call = Trace.Send; _ } -> true
           | _ -> false)
         (Trace.events trace))
  in
  Alcotest.(check bool) "sends decided" true (sends > 0);
  Alcotest.(check (list int)) "one footprint call per decided send, per replica"
    [ sends; sends; sends ] (List.rev_map ( ! ) !counts);
  Alcotest.(check (list (pair string string))) "same replica states" (states plain)
    (states cluster);
  let verdict cert =
    let r = Certifier.report cert in
    (Certifier.certified r, r.Certifier.windows, r.Certifier.commands)
  in
  Alcotest.(check (triple bool int int)) "same certifier verdict" (verdict plain_cert)
    (verdict cert);
  Alcotest.(check bool) "certified" true (Certifier.certified (Certifier.report cert))

(* ------------------------------------------------------------------ *)
(* Closed-form idle turns *)

(* Everything a run computes that the idle spin could move: the client
   replies, and per replica its state, its per-connection output stream,
   its DMT logical clock and its gate statistics. *)
type observed = {
  replies : (string * string option) list;
  replicas : (string * string * (int * string) list * int * (int * int * int * int)) list;
}

(* Run [requests] requests of a seeded workload on a fresh cluster, then
   let the backups replay.  With [traced] a retaining recorder is
   attached, so the engine takes every idle step; without it, the idle
   spin's pure steps are batched.  Returns what the run computed and the
   engine's counters. *)
let run_idle_case ~traced ~cfg ~server ~port ~requests request =
  (* An idle step records a span: cap what is kept, not what is traced. *)
  let trace = if traced then Some (Trace.create ~limit:100_000 ()) else None in
  let cluster = Cluster.create ~seed:11 ~cfg ?trace ~server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port in
  let replies = ref [] in
  let request target ~from =
    let r = request target ~from in
    replies := (from, r) :: !replies;
    r
  in
  let handle =
    Loadgen.run ~name:"w" ~seed:11 ~think:(Time.ms 2) ~clients:4 ~requests ~request target
  in
  Loadgen.drive ~timeout:(Time.sec 60) target handle;
  Cluster.run ~until:(Engine.now eng + Time.ms 100) cluster;
  Cluster.check_failures cluster;
  let replicas =
    List.map
      (fun (n, (i : Instance.t)) ->
        ( n,
          i.Instance.handle.Crane_core.Api.state_of (),
          List.map
            (fun (e : Output_log.entry) -> (e.Output_log.conn, e.Output_log.payload))
            (Output_log.entries (Vhost.output i.Instance.vhost)),
          (match i.Instance.dmt with Some d -> Dmt.clock d | None -> -1),
          Vhost.gate_stats i.Instance.vhost ))
      (Cluster.instances cluster)
  in
  ({ replies = List.rev !replies; replicas }, Engine.stats eng)

let check_stepped_equals_batched ~cfg ~server ~port ~requests request =
  let stepped, s_stats = run_idle_case ~traced:true ~cfg ~server ~port ~requests (request ()) in
  let batched, b_stats = run_idle_case ~traced:false ~cfg ~server ~port ~requests (request ()) in
  let ok = List.filter (fun (_, r) -> r <> None) stepped.replies in
  Alcotest.(check bool) "requests answered" true (List.length ok >= requests);
  Alcotest.(check (list (pair string (option string)))) "same replies" stepped.replies
    batched.replies;
  Alcotest.(check int) "same replica count" (List.length stepped.replicas)
    (List.length batched.replicas);
  List.iter2
    (fun (n, st, out, clock, (bulk, delta, blocks, block_time))
         (_, st', out', clock', (bulk', delta', blocks', block_time')) ->
      Alcotest.(check string) (n ^ " state") st st';
      Alcotest.(check (list (pair int string))) (n ^ " output streams") out out';
      Alcotest.(check int) (n ^ " logical clock") clock clock';
      Alcotest.(check (list int)) (n ^ " gate stats") [ bulk; delta; blocks; block_time ]
        [ bulk'; delta'; blocks'; block_time' ])
    stepped.replicas batched.replicas;
  Alcotest.(check int) "traced run takes every step" 0 s_stats.Engine.spin_skipped;
  Alcotest.(check bool) "untraced run batches idle steps" true (b_stats.Engine.spin_skipped > 0);
  (* Each applied step stands for two events of the stepped run. *)
  Alcotest.(check int) "same event count, stepped or batched" s_stats.Engine.events_run
    (b_stats.Engine.events_run + (2 * b_stats.Engine.spin_skipped))

(* Point SELECT/UPDATE 80/20 on a 4-worker pool: admission scans that
   admit nothing, and bubbles drained while workers compute. *)
let sql_request () =
  let rng = Crane_sim.Rng.create 5 in
  fun target ~from ->
    let table = 1 + Crane_sim.Rng.int rng 4 and id = 1 + Crane_sim.Rng.int rng 50 in
    let stmt =
      if Crane_sim.Rng.int rng 5 = 0 then
        Printf.sprintf "UPDATE sbtest%d SET c=%d WHERE id=%d\n" table (Crane_sim.Rng.int rng 1000) id
      else Printf.sprintf "SELECT c FROM sbtest%d WHERE id=%d\n" table id
    in
    match Target.connect target ~from with
    | None -> None
    | Some conn ->
      let has sub r = Crane_apps.Str_util.find_sub r sub <> None in
      let reply =
        match Clients.read_until conn ~stop:(has "ready") with
        | None -> None
        | Some _ ->
          Sock.send conn stmt;
          Clients.read_until conn ~stop:(has "\n")
      in
      Sock.close conn;
      reply

let test_idle_batched_mysql_pool () =
  check_stepped_equals_batched
    ~cfg:{ (pool_cfg 4) with Instance.service_port = 3306 }
    ~server:(Crane_apps.Mysql.server ~cfg:{ Crane_apps.Mysql.default_config with db_file_bytes = 4096 } ())
    ~port:3306 ~requests:200 sql_request

(* Bubbling off (plan II): the gate has nothing to do on an empty
   sequence, and the idle thread spins on a no-op gate. *)
let test_idle_batched_no_bubbling () =
  check_stepped_equals_batched
    ~cfg:{ (pool_cfg 1) with Instance.mode = Instance.No_bubbling }
    ~server:Ledger.server ~port:80 ~requests:60
    (fun () -> Ledger.request (Ledger.client ()))

(* ------------------------------------------------------------------ *)
(* Certifier verdicts on synthetic schedules *)

let ev ~ts ~tid event = { Trace.ts; tid; group = -1; node = "n1"; ph = Trace.Instant; event }

let exec_begin ~ts ~tid index =
  ev ~ts ~tid (Trace.Exec_begin { index; conn = 0; lane = 1 })

let exec_end ~ts ~tid = ev ~ts ~tid (Trace.Exec_end { conn = 0 })
let mem ~ts ~tid ~write loc = ev ~ts ~tid (Trace.Mem { write; loc; site = "cell" })

let resolve (e : Trace.ev) = e.Trace.node

(* In-order conflicting writes certify; the location is shared (two
   threads), so the verdict is not confinement by accident. *)
let test_certifier_true_negative () =
  let r =
    Certifier.check_events ~resolve_node:resolve
      [
        exec_begin ~ts:10 ~tid:1 1;
        mem ~ts:11 ~tid:1 ~write:true 5;
        exec_end ~ts:12 ~tid:1;
        exec_begin ~ts:20 ~tid:2 2;
        mem ~ts:21 ~tid:2 ~write:true 5;
        exec_end ~ts:22 ~tid:2;
      ]
  in
  Alcotest.(check int) "two windows" 2 r.Certifier.windows;
  Alcotest.(check int) "shared location checked" 1 r.Certifier.locations;
  Alcotest.(check int) "nothing confined" 0 r.Certifier.confined;
  Alcotest.(check bool) "certified" true (Certifier.certified r)

(* A higher-index command whose write lands before a conflicting
   lower-index one is exactly the admission bug the certifier exists to
   catch. *)
let test_certifier_true_positive () =
  let r =
    Certifier.check_events ~resolve_node:resolve
      [
        exec_begin ~ts:10 ~tid:2 2;
        mem ~ts:11 ~tid:2 ~write:true 5;
        exec_end ~ts:12 ~tid:2;
        exec_begin ~ts:20 ~tid:1 1;
        mem ~ts:21 ~tid:1 ~write:true 5;
        exec_end ~ts:22 ~tid:1;
      ]
  in
  Alcotest.(check bool) "not certified" false (Certifier.certified r);
  (match r.Certifier.violations with
  | [ v ] ->
    Alcotest.(check string) "kind" "write-write" v.Certifier.v_kind;
    Alcotest.(check int) "late command" 1 v.Certifier.v_early_index;
    Alcotest.(check int) "early command" 2 v.Certifier.v_late_index
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  (* the same out-of-order pair on a single thread is thread-confined:
     one worker's own program order carries no admission claim *)
  let confined =
    Certifier.check_events ~resolve_node:resolve
      [
        exec_begin ~ts:10 ~tid:1 2;
        mem ~ts:11 ~tid:1 ~write:true 5;
        exec_end ~ts:12 ~tid:1;
        exec_begin ~ts:20 ~tid:1 1;
        mem ~ts:21 ~tid:1 ~write:true 5;
        exec_end ~ts:22 ~tid:1;
      ]
  in
  Alcotest.(check int) "confined location exempt" 1 confined.Certifier.confined;
  Alcotest.(check bool) "confined certifies" true (Certifier.certified confined)

(* Reads only conflict with writes: concurrent out-of-order reads of a
   shared location are fine; a read overtaken by a lower-index write is
   not. *)
let test_certifier_read_write () =
  let clean =
    Certifier.check_events ~resolve_node:resolve
      [
        exec_begin ~ts:10 ~tid:2 2;
        mem ~ts:11 ~tid:2 ~write:false 5;
        exec_end ~ts:12 ~tid:2;
        exec_begin ~ts:20 ~tid:1 1;
        mem ~ts:21 ~tid:1 ~write:false 5;
        exec_end ~ts:22 ~tid:1;
      ]
  in
  Alcotest.(check bool) "read-read reorder certifies" true
    (Certifier.certified clean);
  let dirty =
    Certifier.check_events ~resolve_node:resolve
      [
        exec_begin ~ts:10 ~tid:2 2;
        mem ~ts:11 ~tid:2 ~write:false 5;
        exec_end ~ts:12 ~tid:2;
        exec_begin ~ts:20 ~tid:1 1;
        mem ~ts:21 ~tid:1 ~write:true 5;
        exec_end ~ts:22 ~tid:1;
      ]
  in
  (match dirty.Certifier.violations with
  | [ v ] -> Alcotest.(check string) "kind" "read-write" v.Certifier.v_kind
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs))

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "dmt lane routing" `Quick test_dmt_lane_routing;
        Alcotest.test_case "dmt lanes independent" `Quick
          test_dmt_lanes_independent;
        Alcotest.test_case "pool convergence + certifier" `Slow
          test_pool_convergence_certified;
        Alcotest.test_case "attached sinks equal retained replay" `Slow
          test_sinks_equal_replay;
        Alcotest.test_case "state equivalent across pool widths" `Slow
          test_pool_state_equivalent_across_widths;
        Alcotest.test_case "footprint classified once per send" `Slow
          test_pool_footprint_once;
        Alcotest.test_case "idle steps batched = stepped (mysql pool)" `Slow
          test_idle_batched_mysql_pool;
        Alcotest.test_case "idle steps batched = stepped (no bubbling)" `Slow
          test_idle_batched_no_bubbling;
        Alcotest.test_case "certifier true negative" `Quick
          test_certifier_true_negative;
        Alcotest.test_case "certifier true positive + confinement" `Quick
          test_certifier_true_positive;
        Alcotest.test_case "certifier read/write conflicts" `Quick
          test_certifier_read_write;
      ] );
  ]
