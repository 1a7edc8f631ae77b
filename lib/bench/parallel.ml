(** Dependency-aware parallel delivery: commit->reply latency with the
    per-lane execute pool on and off, for three compute-heavy apps, plus
    probes that the pool changes no output and every pooled schedule is
    certified. *)

open Harness
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Clients = Crane_workload.Clients
module Certifier = Crane_analysis.Certifier

type papp = PLedger | PMysql | PHttp

let all_papps = [ ("ledger", PLedger); ("mysql", PMysql); ("http", PHttp) ]

(* Compute-heavy variants: execute windows must overlap under the
   1-lane baseline for the bench to measure the rotation stalls the
   pool removes (a thread that becomes lane head mid-compute stalls the
   whole lane until its next turn operation).  The apache profile's
   70 ms pages would dominate the run wall-clock, so the http variant
   uses smaller pages.  The mysql profile is weighted toward the
   buffer-pool latch walk — many short critical sections, each a turn
   operation.  Long uniform compute sleeps pipeline through one lane
   almost losslessly (each thread gets a turn per rotation while the
   others sleep), so it is exactly this op-dominated locking — the
   paper's Figure 14 culprit — that a single lane serializes and a
   per-lane pool recovers. *)
let papp_server = function
  | PLedger -> (Ledger.server, 80)
  | PMysql ->
    let cfg =
      { Crane_apps.Mysql.default_config with
        Crane_apps.Mysql.lookup_cost = Time.us 2000;
        bufpool_ops = 20;
        bufpool_op_cost = Time.us 30 }
    in
    (Crane_apps.Mysql.server ~cfg (), 3306)
  | PHttp ->
    let cfg =
      { Crane_apps.Apache.default_config with
        Crane_apps.Http_server.php_segments = 6;
        segment_cost = Time.us 800 }
    in
    (Crane_apps.Http_server.make ~name:"http" ~cfg, 80)

(* Per-request arrival period.  Clients fire their k-th request at a
   fixed virtual instant (storm + (k-1) * cycle), so all clients'
   commands commit — and want to execute — in the same window: the
   1-lane baseline must interleave them through one rotation while the
   pool spreads them over lanes.  The cycle leaves room for the
   baseline's inflated windows; a slow request just slips its client's
   schedule without affecting the others'. *)
let papp_cycle = function
  | PLedger -> Time.ms 10
  | PMysql -> Time.ms 25
  | PHttp -> Time.ms 35

(* Per-client phase offset within a cycle.  One lane only starves a
   thread when its short turn-taking ops (latch walks) rotate behind
   other threads' long compute sleeps; identical clients fired in
   lockstep move through those phases together and pipeline instead.
   A large mysql stagger makes one client's latch walk overlap the
   others' B-tree segments — the collision the pool dissolves. *)
let papp_stagger = function
  | PLedger | PHttp -> Time.us 13
  | PMysql -> Time.us 700

(* One request of client [c]'s deterministic sequence.  All three
   workloads are read-only on disjoint (or read-shared) footprints, so
   the pooled schedule's responses cannot depend on cross-client
   interleaving — which is what lets the byte-identity probe demand
   pool-on and pool-off transcripts be equal. *)
let papp_issue app ~target ~c ~k ~from =
  match app with
  | PLedger -> Ledger.consensus_get target ~from
  | PMysql -> (
    let table = 1 + ((c - 1) mod 16) in
    let id = 1 + ((37 * c) + (11 * k) mod 2000) in
    match Target.connect target ~from with
    | None -> None
    | Some conn ->
      let result =
        match
          Clients.read_until conn ~stop:(fun r ->
              Crane_apps.Str_util.find_sub r "ready" <> None)
        with
        | None -> None
        | Some _banner ->
          Sock.send conn (Printf.sprintf "SELECT c FROM sbtest%d WHERE id=%d\n" table id);
          Clients.read_until conn ~stop:(fun r ->
              Crane_apps.Str_util.find_sub r "\n" <> None)
      in
      Sock.close conn;
      result)
  | PHttp ->
    let path =
      if k mod 3 = 0 then Printf.sprintf "/static/page%d.html" c
      else "/test.php"
    in
    Clients.http_request target ~from ~meth:"GET" ~path ()

let run_one app ~case ~pool ~clients ~per_client ~seed =
  let server, port = papp_server app in
  let tr = Trace.create ~retain:false () in
  let cp = Critical_path.attach tr and cert = Certifier.attach tr in
  let cfg = { (fast_cfg ~mode:Instance.Full ~port) with pool_workers = pool } in
  let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port in
  (* Let the election settle so every measured request rides a stable
     primary. *)
  Cluster.run ~until:(Time.ms 800) cluster;
  (* Ledger: seed a fixed prefix sequentially, so the GET storm reads
     stable data (and the PUT/barrier admission path runs under the
     pool too). *)
  (match app with
  | PLedger ->
    let seeded = ref false in
    Engine.spawn eng ~name:"par-seed" (fun () ->
        let lc = Ledger.client () in
        for _ = 1 to 6 do
          ignore (Ledger.request lc target ~from:"par-seed")
        done;
        seeded := true);
    Loadgen.step_until eng ~step:(Time.ms 100) ~deadline:(Time.sec 60) (fun () -> !seeded)
  | PMysql | PHttp -> ());
  let storm_at = Engine.now eng + Time.ms 200 in
  let transcripts = Array.make (clients + 1) [] in
  let errors = ref 0 and ok = ref 0 and live = ref clients in
  for c = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "par-client%d" c) (fun () ->
        let from = Printf.sprintf "par-c%d" c in
        let cycle = papp_cycle app in
        let stagger = papp_stagger app in
        for k = 1 to per_client do
          (* Absolute, staggered fire instants: the arrival schedule is
             a pure function of the seed phase, not of response
             latencies. *)
          Engine.sleep eng
            (max 0
               (storm_at + ((k - 1) * cycle) + (c * stagger)
               - Engine.now eng));
          (match papp_issue app ~target ~c ~k ~from with
          | Some r ->
            incr ok;
            transcripts.(c) <- Output_log.normalize_payload r :: transcripts.(c)
          | None ->
            incr errors;
            transcripts.(c) <- "<fail>" :: transcripts.(c))
        done;
        decr live)
  done;
  Loadgen.step_until eng ~step:(Time.ms 500) ~deadline:(Engine.now eng + Time.sec 600) (fun () ->
      !live = 0);
  (* Drain trailing closes so the last execute windows end before
     analysis. *)
  Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
  Cluster.check_failures cluster;
  let cp = Critical_path.report cp in
  (* The delivery stage under test is commit -> reply: admission wait
     plus execution.  The raw execute window (admit -> reply) is blind
     to the 1-lane baseline's cost by construction — legacy admits a
     command only when its connection's thread consumes it from the
     sequence head, so head-of-line queueing behind a busy connection
     is charged to sched_wait and the late-admitted window still spans
     just the solo compute.  Gating on the sum keeps both modes on the
     same anchors. *)
  let stage_mean name =
    match
      List.find_opt (fun s -> s.Critical_path.stage = name) cp.Critical_path.stages
    with
    | Some s -> s.Critical_path.summary.Metrics.mean
    | None -> 0.0
  in
  let exec_mean = stage_mean "sched_wait" +. stage_mean "execute" in
  let state, committed =
    match Cluster.primary cluster with
    | Some (_, inst) ->
      (inst.Instance.handle.Api.state_of (), Paxos.committed inst.Instance.paxos)
    | None -> ("", 0)
  in
  let outputs =
    String.concat "\x00"
      (List.mapi
         (fun c t ->
           Printf.sprintf "c%d:%s" c (String.concat "|" (List.rev t)))
         (Array.to_list transcripts))
  in
  let cert = Certifier.report cert in
  if not (Certifier.certified cert) then print_string (Certifier.render cert);
  ( Rows.
      [ row case "commit_reply_mean" "ns" Lower exec_mean;
        row case "e2e_mean" "ns" Lower cp.Critical_path.e2e.Metrics.mean;
        row case "ok" "count" Higher (float !ok);
        row case "errors" "count" Lower (float !errors);
        row case "committed" "entries" Lower (float committed);
        row case "cert_windows" "count" Higher (float cert.Certifier.windows);
        row case "cert_commands" "count" Higher (float cert.Certifier.commands);
        row case "cert_locations" "count" Higher (float cert.Certifier.locations);
        row case "cert_confined" "count" Higher (float cert.Certifier.confined);
        row case "cert_violations" "count" Lower
          (float (List.length cert.Certifier.violations)) ],
    (* canonical per-client transcript (times stripped) and the primary's
       application state: the byte-identity probe's two halves *)
    (outputs, state) )

let clients = 8
let workers = 4
let per_client quick = if quick then 6 else 16

(* Each app's two cases: the 1-lane baseline and the pool. *)
let cases quick name =
  let case pool = Printf.sprintf "%s, %s (%d clients x %d)" name pool clients (per_client quick) in
  (case "pool off", case (Printf.sprintf "pool x%d" workers))

let run ~quick ~seed =
  let per_client = per_client quick in
  let per_app (name, app) =
    let off, on = cases quick name in
    let serial, serial_out = run_one app ~case:off ~pool:1 ~clients ~per_client ~seed in
    let pooled, pooled_out = run_one app ~case:on ~pool:workers ~clients ~per_client ~seed in
    let mean rows case = Rows.find rows case "commit_reply_mean" in
    let speedup = if mean pooled on > 0.0 then mean serial off /. mean pooled on else 0.0 in
    serial @ pooled
    @ Rows.
        [ row on "speedup" "x" Higher speedup;
          flag on "outputs_identical" (serial_out = pooled_out);
          flag on "certified" (Rows.find pooled on "cert_violations" = 0.) ]
  in
  List.concat_map per_app all_papps

let min_speedup = 1.5

let gates ({ quick; rows; _ } : Rows.t) =
  let cases = List.map (fun (name, _) -> cases quick name) all_papps in
  let pooled = List.map snd cases and all = List.concat_map (fun (off, on) -> [ off; on ]) cases in
  let over cases metric f = List.fold_left (fun acc c -> f acc (Rows.find rows c metric)) 0. cases in
  [ Rows.at_least "best commit->reply speedup" (over pooled "speedup" Float.max) min_speedup;
    Rows.none "request errors" (over all "errors" ( +. )) ]
  @ List.concat_map (fun on -> List.map (Rows.is_set rows on) [ "outputs_identical"; "certified" ])
      pooled
