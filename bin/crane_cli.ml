(* Command-line front end: run any server under any deployment and
   report latency statistics, or exercise the failure scenarios.

     dune exec bin/crane_cli.exe -- run --server apache --mode crane
     dune exec bin/crane_cli.exe -- run --server mysql --mode native -n 200
     dune exec bin/crane_cli.exe -- failover --server mongoose
     dune exec bin/crane_cli.exe -- servers *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Paxos = Crane_paxos.Paxos
module Sock = Crane_socket.Sock
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Loadgen = Crane_workload.Loadgen
module Servers = Crane_workload.Servers
module Stats = Crane_report.Stats
module Table = Crane_report.Table
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
open Cmdliner

type mode_choice = Native | Parrot | PaxosOnly | Crane | PlanII

let all_modes =
  [ ("native", Native); ("parrot", Parrot); ("paxos-only", PaxosOnly);
    ("crane", Crane); ("plan2", PlanII) ]

let imode_of = function
  | PaxosOnly -> Instance.Paxos_only
  | PlanII -> Instance.No_bubbling
  | Native | Parrot | Crane -> Instance.Full

let report name (r : Loadgen.result) =
  Printf.printf "%s: %d ok, %d errors\n" name (List.length r.Loadgen.latencies)
    r.Loadgen.errors;
  if r.Loadgen.latencies <> [] then
    Printf.printf
      "  latency: median %s  mean %.2fms  p90 %s  p99 %s  (virtual wall %s)\n"
      (Time.to_string (Stats.median r.Loadgen.latencies))
      (Stats.mean r.Loadgen.latencies /. 1e6)
      (Time.to_string (Stats.percentile 0.9 r.Loadgen.latencies))
      (Time.to_string (Stats.percentile 0.99 r.Loadgen.latencies))
      (Time.to_string r.Loadgen.wall)

let run_cmd (s : Servers.t) mode clients requests seed =
  let server = s.server ~hints:true and port = s.port in
  let request = s.request (Rng.create (seed + 1)) in
  (match mode with
  | Native | Parrot ->
    let m = if mode = Native then Standalone.Native else Standalone.Parrot in
    let sa = Standalone.boot ~seed ~mode:m ~server () in
    let target = Target.standalone sa ~port in
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Standalone.check_failures sa;
    report "un-replicated" (handle.Loadgen.collect ())
  | PaxosOnly | Crane | PlanII ->
    let imode = imode_of mode in
    let cfg =
      { Instance.default_config with mode = imode; service_port = port; paxos = Servers.fast_paxos }
    in
    let cluster = Cluster.create ~seed ~cfg ~server () in
    Cluster.start cluster;
    let target = Target.cluster cluster ~port in
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Cluster.check_failures cluster;
    report "3-replica cluster" (handle.Loadgen.collect ());
    match Cluster.outputs cluster with
    | (_, o1) :: rest ->
      let same = List.for_all (fun (_, o) -> Output_log.equal o1 o) rest in
      Printf.printf "  replica outputs identical: %b\n" same
    | [] -> ());
  0

let failover_cmd (s : Servers.t) seed =
  let server = s.server ~hints:true and port = s.port in
  let request = s.request (Rng.create (seed + 1)) in
  let cfg =
    { Instance.default_config with service_port = port; checkpoint_period = Time.sec 2 }
  in
  let cluster = Cluster.create ~seed ~cfg ~server () in
  Cluster.start ~checkpoints:true cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port in
  let handle = Loadgen.run ~think:(Time.ms 50) ~clients:4 ~requests:400 ~request target in
  Engine.at eng (Time.sec 5) (fun () ->
      Printf.printf "[5s] killing primary\n";
      Cluster.kill cluster "replica1");
  Engine.at eng (Time.sec 12) (fun () ->
      Printf.printf "[12s] restarting replica1 from checkpoint\n";
      ignore (Cluster.restart cluster "replica1"));
  Loadgen.drive ~timeout:(Time.sec 600) target handle;
  Cluster.run ~until:(Engine.now eng + Time.sec 10) cluster;
  Cluster.check_failures cluster;
  report "failover run" (handle.Loadgen.collect ());
  (match Cluster.primary cluster with
  | Some (n, p) ->
    Printf.printf "primary now: %s (view %d)%s\n" n (Paxos.view p.Instance.paxos)
      (match (Paxos.stats p.Instance.paxos).Paxos.last_election_duration with
      | Some d -> Printf.sprintf ", election took %s" (Time.to_string d)
      | None -> "")
  | None -> print_endline "no primary!");
  0

(* Run a workload with the flight recorder attached, export the trace
   (chrome://tracing JSON or JSONL) and print the aggregated metrics.
   Deterministic: the same seed yields a byte-identical trace file. *)
let trace_cmd (s : Servers.t) mode clients requests seed format out =
  let server = s.server ~hints:true and port = s.port in
  let request = s.request (Rng.create (seed + 1)) in
  let tr = Trace.create () in
  let run_workload target =
    let handle = Loadgen.run ~clients ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    handle.Loadgen.collect ()
  in
  let result =
    match mode with
    | Native | Parrot ->
      let m = if mode = Native then Standalone.Native else Standalone.Parrot in
      let sa = Standalone.boot ~seed ~mode:m ~trace:tr ~server () in
      let r = run_workload (Target.standalone sa ~port) in
      Standalone.check_failures sa;
      r
    | PaxosOnly | Crane | PlanII ->
      let cfg =
        { Instance.default_config with mode = imode_of mode; service_port = port;
          paxos = Servers.fast_paxos }
      in
      let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
      Cluster.start cluster;
      let r = run_workload (Target.cluster cluster ~port) in
      Cluster.check_failures cluster;
      r
  in
  report "traced run" result;
  let payload =
    match format with
    | `Chrome -> Trace.to_chrome tr
    | `Jsonl -> Trace.to_jsonl tr
  in
  (match open_out out with
  | oc ->
    output_string oc payload;
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "crane: cannot write trace: %s\n" msg;
    exit 1);
  Printf.printf "trace: %d events (%d dropped beyond limit) -> %s\n"
    (Trace.length tr) (Trace.dropped tr) out;
  let met = Metrics.of_trace tr in
  Table.print ~title:"event counts" ~header:[ "event"; "count" ]
    (List.map (fun (n, v) -> [ n; string_of_int v ]) (Metrics.counters met));
  Table.print ~title:"virtual-time spans"
    ~header:[ "span"; "count"; "total"; "p50"; "p90"; "p99" ]
    (List.map
       (fun (n, s) ->
         [ n; string_of_int s.Metrics.count; Time.to_string s.Metrics.total;
           Time.to_string s.Metrics.p50; Time.to_string s.Metrics.p90;
           Time.to_string s.Metrics.p99 ])
       (Metrics.summaries met));
  0

(* Run the deterministic chaos suite (or one scenario): inject faults
   under load, check SMR invariants, print one report per scenario.
   Exits nonzero on any invariant violation.  The same seed + scenario
   always prints a byte-identical report. *)
let chaos_cmd scenario seed list =
  let module Chaos = Crane_chaos.Chaos in
  if list then begin
    print_endline "built-in chaos scenarios:";
    List.iter
      (fun s -> Printf.printf "  %-18s %s\n" s.Chaos.name s.Chaos.about)
      Chaos.scenarios;
    0
  end
  else
    let to_run =
      match scenario with
      | None -> Chaos.scenarios
      | Some name -> (
        match Chaos.find_scenario name with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "crane: unknown scenario %s\nvalid scenarios: %s\n" name
            (String.concat ", "
               (List.map (fun s -> s.Chaos.name) Chaos.scenarios));
          exit 2)
    in
    let reports =
      List.map
        (fun s ->
          let r = Chaos.run ~seed s in
          print_string (Chaos.render_report r);
          print_newline ();
          r)
        to_run
    in
    let failed = List.filter (fun r -> not (Chaos.passed r)) reports in
    Table.print ~title:"chaos suite summary" ~header:[ "scenario"; "verdict" ]
      (List.map
         (fun r ->
           [ r.Chaos.r_scenario; (if Chaos.passed r then "PASS" else "FAIL") ])
         reports);
    if failed = [] then begin
      Printf.printf "\nall %d scenarios passed (seed %d)\n" (List.length reports) seed;
      0
    end
    else begin
      Printf.printf "\n%d of %d scenarios FAILED (seed %d)\n" (List.length failed)
        (List.length reports) seed;
      1
    end

(* ---- bench: every bench returns rows and gates ----

   A bench measures, then returns each result number as a row of the
   one schema in {!Crane_report.Rows}, and its pass/fail conditions as
   gates: (label, passed) pairs with constant bounds.  Every yes/no row
   is a gate too.  [bench_cmd] writes the rows to BENCH_<name>.json and
   prints the gates; with --check it also drift-checks every row against
   the committed file, and fails if any gate or row does. *)

module Wal = Crane_storage.Wal
module Rows = Crane_report.Rows

(* ---- bench batching: batched vs. unbatched commit throughput ---- *)

(* One measured configuration: a 3-replica Paxos_only cluster (the
   consensus pipeline without DMT overhead) under an open-loop streaming
   workload — [clients] connections each inject a small request event
   every 100 us for [duration], without waiting for responses.  That
   arrival rate (16 clients -> ~160k events/s) saturates the unbatched
   commit path, whose ceiling is one 15 us WAL fsync per event (~66k/s);
   commit throughput is the primary's decided index at the cutoff
   instant over the streaming window.  The stream's requests do not
   depend on the server (all five give identical rows), so one server
   stands for all. *)
let paxos_only_cluster (s : Servers.t) ~batch_max ~seed =
  let cfg =
    { Instance.default_config with mode = Instance.Paxos_only;
      service_port = s.port; paxos = Servers.fast_paxos; batch_max }
  in
  let cluster = Cluster.create ~seed ~cfg ~server:(s.server ~hints:true) () in
  Cluster.start ~checkpoints:false cluster;
  (cluster, s.port)

let bench_run ~case ~batch_max ~clients ~duration ~seed =
  let cluster, port = paxos_only_cluster (Servers.find "apache") ~batch_max ~seed in
  let eng = Cluster.engine cluster in
  let world = Cluster.world cluster in
  let start = Time.ms 10 in
  let spacing = Time.us 100 in
  let sent = ref 0 in
  for i = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "stream%d" i) (fun () ->
        (* Staggered starts de-synchronize the streams. *)
        Engine.sleep eng (start + Time.us (7 * i));
        match Sock.connect world ~from:(Printf.sprintf "c%d" i) ~node:"replica1" ~port with
        | exception _ -> ()
        | conn ->
          incr sent;
          (try
             while Engine.now eng < start + duration do
               Sock.send conn (Printf.sprintf "req-%d" i);
               incr sent;
               Engine.sleep eng spacing
             done
           with _ -> ()))
  done;
  Cluster.run ~until:(start + duration) cluster;
  Cluster.check_failures cluster;
  let commits, batches, mean_batch, max_batch =
    match Cluster.primary cluster with
    | Some (_, inst) ->
      let s = Paxos.stats inst.Instance.paxos in
      let events, n =
        List.fold_left
          (fun (ev, n) (size, count) -> (ev + (size * count), n + count))
          (0, 0) s.Paxos.events_per_batch
      in
      ( Paxos.committed inst.Instance.paxos, s.Paxos.batches_committed,
        (if n = 0 then 0.0 else float_of_int events /. float_of_int n),
        s.Paxos.max_batch )
    | None -> (0, 0, 0.0, 0)
  in
  let wal_writes = Wal.writes (Hashtbl.find cluster.Cluster.wals "replica1") in
  Rows.
    [ row case "commits" "count" Higher (float commits);
      row case "commits_per_sec" "1/s" Higher
        (float commits /. (Time.to_float_ms duration /. 1000.));
      row case "events_sent" "count" Higher (float !sent);
      row case "wal_writes" "count" Lower (float wal_writes);
      row case "batches_committed" "count" Lower (float batches);
      row case "mean_batch" "events" Higher mean_batch;
      (* the histogram caps its top bucket; this is the true max *)
      row case "max_batch" "events" Higher (float max_batch) ]

(* Fixed-seed equivalence probe: a sequential client (no response-latency
   races, so event arrival order cannot depend on commit timing) against
   the same seed, batched and unbatched — the replica output logs must
   render byte-identically. *)
let bench_equivalence (s : Servers.t) ~seed ~requests =
  let render batch_max =
    let cluster, port = paxos_only_cluster s ~batch_max ~seed in
    let request = s.request (Rng.create (seed + 1)) in
    let target = Target.cluster cluster ~port in
    let handle = Loadgen.run ~clients:1 ~requests ~request target in
    Loadgen.drive ~timeout:(Time.sec 3600) target handle;
    Cluster.check_failures cluster;
    match Cluster.outputs cluster with
    | (_, o) :: _ -> Output_log.render o
    | [] -> ""
  in
  let a = render 1 and b = render 64 in
  a <> "" && String.equal a b

let min_batching_speedup = 2.0

let bench_batching ~quick ~seed =
  let clients = 16 in
  let duration = if quick then Time.ms 200 else Time.sec 1 in
  let eq_requests = if quick then 12 else 32 in
  let case mode =
    Printf.sprintf "%s (%d clients, %.0f ms)" mode clients (Time.to_float_ms duration)
  in
  let run mode batch_max = bench_run ~case:(case mode) ~batch_max ~clients ~duration ~seed in
  let unbatched = run "unbatched" 1 and batched = run "batched" 64 in
  let u = Rows.value unbatched (case "unbatched") "commits_per_sec"
  and b = Rows.value batched (case "batched") "commits_per_sec" in
  let speedup = if u > 0.0 then b /. u else 0.0 in
  let equivalence (s : Servers.t) =
    Rows.flag
      (Printf.sprintf "%s equivalence (%d requests)" s.name eq_requests)
      "outputs_identical"
      (bench_equivalence s ~seed ~requests:eq_requests)
  in
  ( unbatched @ batched
    @ Rows.row (case "batched") "speedup" "x" Rows.Higher speedup
      :: List.map equivalence Servers.all,
    [ Rows.at_least "batched/unbatched commit speedup" speedup min_batching_speedup ] )

(* ---- bench recovery: bounded logs and two-tier catch-up ---- *)

(* Measures what log compaction buys: a 3-node consensus group streams
   [history] decisions while one backup is down, then restarts it and
   times how long the straggler takes to re-join.  With compaction on,
   the group's resident log stays bounded (entries below the watermark
   are freed once a snapshot covers them) and the straggler recovers via
   snapshot transfer plus a short log suffix; with compaction off, the
   log grows with history and recovery replays everything.  The paxos
   layer is benched directly (no DMT) so the numbers isolate the
   consensus/storage path the fix targets. *)

module Fabric = Crane_net.Fabric

type rnode = { rn_paxos : Paxos.t; rn_group : Engine.group; rn_state : string ref }

let recovery_members = [ "n1"; "n2"; "n3" ]

let recovery_run ~case ~threshold ~history ~seed =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create seed) in
  let wals = Hashtbl.create 4 in
  let config =
    { Paxos.default_config with
      Paxos.heartbeat_period = Time.ms 50; election_timeout = Time.ms 200;
      election_jitter = Time.ms 30; round_retry = Time.ms 50;
      compaction_threshold = threshold; catchup_chunk = 256;
      lease_duration = Time.ms 100 }
  in
  (* [on_progress index] fires at each decision the node applies or
     snapshot it installs, at the exact virtual instant it happens. *)
  let boot ?(on_progress = fun (_ : int) -> ()) name =
    let wal =
      match Hashtbl.find_opt wals name with
      | Some w -> w
      | None ->
        let w = Wal.create eng ~name in
        Hashtbl.add wals name w;
        w
    in
    let group = Engine.new_group eng in
    let p =
      Paxos.create ~config ~fabric ~rng:(Rng.create (seed + Hashtbl.hash name)) ~wal
        ~members:recovery_members ~node:name ~group ()
    in
    (* The replicated state is a chain digest of the decision stream: tiny,
       but it distinguishes any two histories, so convergence checks are
       as strict as with a real server. *)
    let state = ref "" in
    Paxos.set_handlers p
      { Paxos.on_commit =
          (fun ~index v ->
            state := Digest.to_hex (Digest.string (!state ^ v));
            on_progress index);
        on_demote = (fun () -> ());
      on_config = (fun ~epoch:_ _ -> ());
      on_fence = (fun ~epoch:_ -> ()) };
    Paxos.set_compaction_hooks p
      { Paxos.install_snapshot =
          (fun ~index blob ->
            state := (Marshal.from_string blob 0 : string);
            on_progress index);
        on_compact = (fun ~watermark:_ -> ()) };
    Paxos.start p ~as_primary:(name = "n1") ();
    Fabric.node_up fabric name;
    (* WAL recovery does not re-fire on_commit (a real instance replays
       decided calls itself, from its restored checkpoint); do the same
       here — restore the recovered snapshot, then fold the resident
       committed suffix into the state. *)
    let from =
      match Paxos.snapshot p with
      | Some (s_index, blob) when s_index <= Paxos.applied p ->
        state := (Marshal.from_string blob 0 : string);
        s_index + 1
      | _ -> Paxos.base p + 1
    in
    List.iter
      (fun v -> state := Digest.to_hex (Digest.string (!state ^ v)))
      (Paxos.get_committed_range p ~lo:from ~hi:(Paxos.applied p));
    { rn_paxos = p; rn_group = group; rn_state = state }
  in
  let n1 = boot "n1" in
  let n2 = boot "n2" in
  let n3 = boot "n3" in
  (* n2 plays the checkpoint backup: every ~256 applied decisions it hands
     its state to consensus as a snapshot (what Instance does after each
     real checkpoint), which is what licenses compaction. *)
  let snap_every = 256 in
  let last_offered = ref 0 in
  let rec snap_loop () =
    Engine.after eng (Time.ms 20) (fun () ->
        let a = Paxos.applied n2.rn_paxos in
        if a - !last_offered >= snap_every then begin
          last_offered := a;
          Paxos.offer_snapshot n2.rn_paxos ~index:a
            ~blob:(Marshal.to_string !(n2.rn_state) [])
        end;
        snap_loop ())
  in
  snap_loop ();
  Engine.spawn eng ~name:"stream" (fun () ->
      Engine.sleep eng (Time.ms 10);
      for i = 1 to history do
        ignore (Paxos.submit n1.rn_paxos [ Printf.sprintf "r%07d" i ]);
        Engine.sleep eng (Time.us 100)
      done);
  (* Kill n3 early: everything decided after this point is history it must
     recover on restart. *)
  Engine.run ~until:(Time.ms 50) eng;
  Engine.kill_group eng n3.rn_group;
  Fabric.node_down fabric "n3";
  let stream_end = Time.ms 10 + (history * Time.us 100) in
  Engine.run ~until:(stream_end + Time.ms 300) eng;
  (* The straggler's two recovery instants, taken in its own hooks: its
     first catch-up progress (a decision applied or a snapshot installed)
     and the moment it has applied everything the primary committed. *)
  let first_progress = ref None and caught_up = ref None in
  let on_progress index =
    let now = Engine.now eng in
    if !first_progress = None then first_progress := Some now;
    if !caught_up = None && index >= Paxos.committed n1.rn_paxos then caught_up := Some now
  in
  let n3' = boot ~on_progress "n3" in
  let t0 = Engine.now eng in
  let deadline = t0 + Time.sec 60 in
  while
    Paxos.applied n3'.rn_paxos < Paxos.committed n1.rn_paxos
    && Engine.now eng < deadline
  do
    Engine.run ~until:(Engine.now eng + Time.ms 5) eng
  done;
  (* A straggler that never caught up is charged the whole wait. *)
  let caught_up = Option.value !caught_up ~default:(Engine.now eng) in
  let first_progress = Option.value !first_progress ~default:caught_up in
  let converged =
    Paxos.applied n3'.rn_paxos >= Paxos.committed n1.rn_paxos
    && String.equal !(n3'.rn_state) !(n1.rn_state)
  in
  (match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    failwith (Printf.sprintf "bench thread %s died: %s" name (Printexc.to_string e)));
  let live = [ n1; n2; n3' ] in
  let peak =
    List.fold_left
      (fun acc n -> max acc (Paxos.stats n.rn_paxos).Paxos.peak_log_resident)
      0 live
  in
  let wal1 = Hashtbl.find wals "n1" in
  let compactions =
    List.fold_left (fun acc n -> acc + (Paxos.stats n.rn_paxos).Paxos.compactions) 0 live
  in
  Rows.
    [ row case "recovery" "ms" Lower (Time.to_float_ms (caught_up - t0));
      row case "rejoin_wait" "ms" Lower (Time.to_float_ms (first_progress - t0));
      row case "catchup" "ms" Lower (Time.to_float_ms (caught_up - first_progress));
      row case "peak_log_resident" "entries" Lower (float peak);
      row case "final_log_resident" "entries" Lower
        (float (Paxos.stats n1.rn_paxos).Paxos.log_resident);
      row case "wal_records" "records" Lower (float (Wal.length wal1));
      row case "wal_dropped" "records" Higher (float (Wal.dropped wal1));
      row case "compactions" "count" Higher (float compactions);
      row case "snapshots_installed" "count" Higher
        (float (Paxos.stats n3'.rn_paxos).Paxos.snapshots_installed);
      flag case "converged" converged ]

let recovery_threshold = 128

let bench_recovery ~quick ~seed =
  let histories = if quick then [ 500; 1000; 2000 ] else [ 1000; 2000; 4000; 8000 ] in
  let case threshold history =
    Printf.sprintf "history %d, %s" history
      (if threshold > 0 then Printf.sprintf "compaction at %d" threshold
       else "no compaction")
  in
  let run th history = recovery_run ~case:(case th history) ~threshold:th ~history ~seed in
  let rows =
    List.concat_map (fun th -> List.concat_map (run th) histories) [ recovery_threshold; 0 ]
  in
  let smallest = List.hd histories and largest = List.nth histories (List.length histories - 1) in
  let on history m = Rows.value rows (case recovery_threshold history) m in
  let peak = on largest "peak_log_resident" and small_peak = on smallest "peak_log_resident" in
  let off_peak = Rows.value rows (case 0 largest) "peak_log_resident" in
  let catchup = on largest "catchup" and off_catchup = Rows.value rows (case 0 largest) "catchup" in
  ( rows,
    (* "bounded" means the peak stops tracking history length: the largest
       run's peak must stay within a constant band of the smallest run's,
       and clearly below the uncompacted peak. *)
    [ Rows.at_most (Printf.sprintf "compacted peak log at history %d, flat bound" largest) peak
        ((2. *. small_peak) +. 256.);
      (Printf.sprintf "compacted peak %.0f below uncompacted peak %.0f" peak off_peak,
       peak < off_peak);
      Rows.at_least "snapshots installed by the straggler at the largest history"
        (on largest "snapshots_installed") 1.;
      (Printf.sprintf "uncompacted catch-up %.3f ms above compacted %.3f ms at history %d"
         off_catchup catchup largest,
       off_catchup > catchup) ] )

(* ---- bench reconfig: client-visible unavailability during a live
   replica replacement ---- *)

module Ledger = Crane_chaos.Ledger

let max_gap instants =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (max acc (b - a)) rest
    | _ -> acc
  in
  go Time.zero instants

(* Kill the primary under load, then commit a membership change swapping
   the dead replica for a fresh one.  The workload never stops: the gap
   analysis over its completion instants is the availability measurement
   (the paper's criterion: failures must be masked from clients). *)
let reconfig_bench_run ~case ~seed ~requests =
  let cfg =
    { Instance.default_config with
      paxos =
        { Paxos.default_config with
          Paxos.heartbeat_period = Time.ms 100; election_timeout = Time.ms 300;
          election_jitter = Time.ms 50; round_retry = Time.ms 100 };
      checkpoint_period = Time.sec 2 }
  in
  let cluster = Cluster.create ~seed ~cfg ~server:Ledger.server () in
  let eng = Cluster.engine cluster in
  Cluster.start cluster;
  Cluster.run ~until:(Time.ms 200) cluster;
  let kill_at = Time.ms 1200 in
  let dead = ref "" in
  Engine.at eng kill_at (fun () ->
      match Cluster.primary_node cluster with
      | Some p ->
        dead := p;
        Cluster.kill cluster p;
        Engine.after eng (Time.ms 200) (fun () ->
            Cluster.replace_replica cluster ~dead:p ~fresh:"replica4")
      | None -> ());
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"reconfig" ~seed ~think:(Time.ms 2) ~retries:8
      ~retry_backoff:(Time.ms 50) ~clients:6 ~requests
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 120) target handle;
  let load = handle.Loadgen.collect () in
  (* let the replacement finish joining and catching up *)
  Cluster.run ~until:(Engine.now eng + Time.sec 3) cluster;
  Cluster.check_failures cluster;
  let before = List.filter (fun t -> t < kill_at) load.Loadgen.completions in
  let last = List.fold_left max Time.zero load.Loadgen.completions in
  Rows.
    [ row case "ok" "count" Higher (float (List.length load.Loadgen.latencies));
      row case "errors" "count" Lower (float load.Loadgen.errors);
      row case "retries" "count" Lower (float load.Loadgen.retries);
      row case "epoch" "count" Higher (float (Cluster.current_epoch cluster));
      (* widest gap between successful completions before the primary
         dies: the no-fault baseline *)
      row case "steady_gap" "ns" Lower (float (max_gap before));
      (* widest gap across the whole run: the client-visible outage
         spanning the crash, the election and the membership change *)
      row case "unavailability" "ns" Lower (float (max_gap load.Loadgen.completions));
      row case "wall" "ns" Lower (float load.Loadgen.wall);
      (* the replacement is live and a member at the end *)
      flag case "healed"
        (Cluster.instance cluster "replica4" <> None
        && List.mem "replica4" (Cluster.members cluster)
        && (not (List.mem !dead (Cluster.members cluster)))
        && Cluster.primary_node cluster <> None);
      (* the workload was still running when the primary died: without
         this the gap analysis would measure nothing *)
      flag case "spans_fault" (last > kill_at) ]

let max_unavailability_ms = 1500.

let bench_reconfig ~quick ~seed =
  let requests = if quick then 4000 else 8000 in
  let case = Printf.sprintf "kill and replace the primary (6 clients, %d requests)" requests in
  let rows = reconfig_bench_run ~case ~seed ~requests in
  (* Same seed, fresh cluster: the availability measurement must be a pure
     function of the seed for the gate (and CI diffs) to mean anything. *)
  let identical = rows = reconfig_bench_run ~case ~seed ~requests in
  let v = Rows.value rows case in
  ( rows @ [ Rows.flag case "rerun_identical" identical ],
    [ Rows.none "request errors" (v "errors");
      Rows.at_least "membership epoch" (v "epoch") 1.;
      Rows.at_most "unavailability (ms)" (v "unavailability" /. 1e6) max_unavailability_ms ] )

(* ---- bench readmix: lease/backup read fast path vs all-consensus
   reads on a read-heavy mix ---- *)

module Proxy = Crane_core.Proxy

(* One measured configuration: a 3-replica Paxos_only ledger cluster
   under a closed-loop 95/5 read/write mix.  [fastpath] selects the read
   route — the proxy read port (lease reads on the primary, bounded-stale
   on backups, consensus fallback on REJECT) or the all-consensus funnel
   every request used before the split. *)
let readmix_read_pct = 95

let readmix_run ~case ~seed ~requests ~fastpath =
  let cfg =
    { Instance.default_config with mode = Instance.Paxos_only;
      paxos = Servers.fast_paxos; read_fastpath = fastpath }
  in
  let cluster = Cluster.create ~seed ~cfg ~server:Ledger.server () in
  let eng = Cluster.engine cluster in
  Cluster.start ~checkpoints:false cluster;
  (* Let the election settle and the first lease establish, so the mix
     measures the steady state rather than boot-time REJECT fallbacks. *)
  Cluster.run ~until:(Time.ms 800) cluster;
  let target = Target.cluster cluster ~port:80 in
  (* Two read routes: bounded-stale traffic lands on the backups, and
     every fourth read is a linearizable one served off the primary's
     lease — so the bench exercises both halves of the fast path. *)
  let rtarget_stale = Target.cluster_backups cluster ~port:cfg.Instance.read_port in
  let rtarget_lease = Target.cluster cluster ~port:cfg.Instance.read_port in
  let ledger = Ledger.client () in
  let nread = ref 0 in
  let read_request =
    if fastpath then fun _ ~from ->
      incr nread;
      let rtarget = if !nread mod 4 = 0 then rtarget_lease else rtarget_stale in
      Ledger.read_request ~rtarget ~target ~from
    else fun t ~from -> Ledger.consensus_get t ~from
  in
  let handle =
    Loadgen.run ~name:"readmix" ~seed ~think:(Time.ms 2) ~retries:8
      ~retry_backoff:(Time.ms 50) ~read_pct:readmix_read_pct ~read_request ~clients:8
      ~requests ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 240) target handle;
  let load = handle.Loadgen.collect () in
  Cluster.run ~until:(Engine.now eng + Time.ms 300) cluster;
  Cluster.check_failures cluster;
  let committed =
    match Cluster.primary cluster with
    | Some (_, inst) -> Paxos.committed inst.Instance.paxos
    | None -> 0
  in
  let sum f =
    List.fold_left
      (fun acc (_, inst) -> acc + f (Proxy.stats inst.Instance.proxy))
      0 (Cluster.instances cluster)
  in
  let ok = List.length load.Loadgen.latencies in
  Rows.
    [ row case "reads" "count" Higher (float (List.length load.Loadgen.read_latencies));
      row case "writes" "count" Higher (float (List.length load.Loadgen.write_latencies));
      row case "errors" "count" Lower (float load.Loadgen.errors);
      row case "committed" "entries" Lower (float committed);
      (* completions per consensus entry — the commit-path offload: reads
         served from leases/watermarks don't spend a consensus round *)
      row case "offload" "ratio" Higher
        (if committed = 0 then 0.0 else float ok /. float committed);
      row case "read_mean" "ns" Lower (Stats.mean load.Loadgen.read_latencies);
      row case "write_mean" "ns" Lower (Stats.mean load.Loadgen.write_latencies);
      row case "lease_reads" "count" Higher (float (sum (fun s -> s.Proxy.lease_reads)));
      row case "backup_reads" "count" Higher (float (sum (fun s -> s.Proxy.backup_reads)));
      row case "lease_rejects" "count" Lower (float (sum (fun s -> s.Proxy.lease_rejects)));
      row case "wall" "ns" Lower (float load.Loadgen.wall) ]

let min_offload_ratio = 2.0

let bench_readmix ~quick ~seed =
  let requests = if quick then 1500 else 3000 in
  let case route =
    Printf.sprintf "%s (%d%% reads, %d requests)" route readmix_read_pct requests
  in
  let fast_case = case "fast path" and base_case = case "all consensus" in
  let run case fastpath = readmix_run ~case ~seed ~requests ~fastpath in
  let fast = run fast_case true and base = run base_case false in
  (* Same seed, fresh cluster: the measurement must be a pure function of
     the seed for the gate (and CI diffs) to mean anything. *)
  let identical = fast = run fast_case true in
  let f = Rows.value fast fast_case and b = Rows.value base base_case in
  let ratio = if b "offload" = 0.0 then 0.0 else f "offload" /. b "offload" in
  ( fast @ base
    @ Rows.
        [ row fast_case "offload_ratio" "x" Higher ratio;
          flag fast_case "rerun_identical" identical ],
    [ Rows.at_least "commit-path offload (x)" ratio min_offload_ratio;
      Rows.at_least "lease reads served" (f "lease_reads") 1.;
      Rows.at_least "backup reads served" (f "backup_reads") 1.;
      Rows.none "request errors, fast path" (f "errors");
      Rows.none "request errors, all consensus" (b "errors") ] )

let servers_cmd () =
  print_endline "available servers:";
  List.iter (fun (s : Servers.t) -> Printf.printf "  %s\n" s.name) Servers.all;
  print_endline "modes: native parrot paxos-only crane plan2";
  0

(* Crane-San: happens-before race detection, lock-order lint and the
   determinism certifier over the bundled servers.  Exit is nonzero on
   any NEW finding (see Driver.problems): a race/inversion/cond-hold in
   a target expected clean, a missed seeded race, or a replay-digest
   mismatch. *)
let analyze_cmd targets seed list =
  let module Driver = Crane_analysis.Driver in
  if list then begin
    print_endline "analyze targets:";
    List.iter (fun n -> Printf.printf "  %s\n" n) Driver.target_names;
    0
  end
  else begin
    let targets = match targets with [] -> Driver.target_names | ts -> ts in
    List.iter
      (fun t ->
        if not (List.mem t Driver.target_names) then begin
          Printf.eprintf "unknown analyze target %s (try --list)\n" t;
          exit 2
        end)
      targets;
    let outcomes = Driver.analyze ~seed ~targets () in
    print_string (Driver.render ~seed outcomes);
    if Driver.problems outcomes = [] then 0 else 1
  end

(* ---- Crane-MC: systematic schedule exploration + linearizability ---- *)

module Mc = Crane_analysis.Mc

let mc_print_violation (v : Mc.violation) =
  Printf.printf "VIOLATION (schedule %d): %s — %s\n" v.v_run v.v_invariant
    v.v_detail;
  Printf.printf "counterexample schedule (%d choices):\n"
    (List.length v.v_choices);
  List.iter
    (fun (c : Mc.choice) ->
      Printf.printf "  %-12s %d/%d  %s\n" c.c_label c.c_taken c.c_width c.c_key)
    v.v_choices

(* Wall time goes to stderr: stdout stays deterministic for diffing. *)
let mc_explore ~name cfg =
  let t0 = Sys.time () in
  let o = Mc.explore cfg in
  let dt = Sys.time () -. t0 in
  Printf.printf "[%s] %d schedules, %d deliveries, %s\n" name o.Mc.o_runs
    o.Mc.o_transitions
    (if o.Mc.o_complete then "explored to bound" else "run budget hit");
  Printf.eprintf "[%s] wall %.1fs\n%!" name dt;
  o

(* Prove the checker finds a reintroduced bug, and that the recorded
   counterexample replays to the same invariant violation. *)
let mc_kill_mutation ~seed m file =
  let cfg = { (Mc.mutation_preset m) with Mc.seed } in
  let name = "mutate:" ^ Mc.mutation_name m in
  let o = mc_explore ~name cfg in
  match o.Mc.o_violation with
  | None ->
    Printf.printf "[%s] NOT KILLED: no violation within the bounds\n" name;
    false
  | Some v ->
    Printf.printf "[%s] killed by %s — %s\n" name v.Mc.v_invariant v.Mc.v_detail;
    Mc.write_trace cfg v file;
    Printf.printf "[%s] counterexample written to %s\n" name file;
    let _, expect, verdict = Mc.replay file in
    (match verdict with
    | Some (inv, _) when inv = expect ->
      Printf.printf "[%s] replay reproduces the %s violation\n" name inv;
      true
    | Some (inv, d) ->
      Printf.printf "[%s] replay diverged: got %s — %s\n" name inv d;
      false
    | None ->
      Printf.printf "[%s] replay FAILED to reproduce the violation\n" name;
      false)

let mc_smoke seed =
  let ok = ref true in
  let clean name cfg =
    let o = mc_explore ~name cfg in
    match o.Mc.o_violation with
    | Some v ->
      mc_print_violation v;
      Mc.write_trace cfg v ("mc_" ^ name ^ ".trace");
      Printf.printf "[%s] counterexample written to mc_%s.trace\n" name name;
      ok := false
    | None -> Printf.printf "[%s] no violations\n" name
  in
  clean "clean" { Mc.default with Mc.seed };
  clean "clean-crash"
    {
      Mc.default with
      Mc.seed;
      clients = 1;
      crash_budget = 1;
      crash_window = 6;
    };
  if not (mc_kill_mutation ~seed Mc.Hole_backfill "mc_hole_backfill.trace") then
    ok := false;
  if not (mc_kill_mutation ~seed Mc.Dup_accept "mc_dup_accept.trace") then
    ok := false;
  if !ok then begin
    print_endline "mc smoke: PASS";
    0
  end
  else begin
    print_endline "mc smoke: FAIL";
    1
  end

let mc_cmd seed replicas clients writes reads crashes drops delay_mult naive
    no_fastpath pool mutate max_branch max_runs trace_out replay smoke =
  match replay with
  | Some path ->
    let cfg, expect, verdict = Mc.replay path in
    Printf.printf "replaying %s (%s, expected violation: %s)\n" path
      (Mc.mutation_name cfg.Mc.mutation)
      (if expect = "" then "?" else expect);
    (match verdict with
    | Some (inv, detail) ->
      Printf.printf "reproduced: %s — %s\n" inv detail;
      if expect = "" || inv = expect then 0 else 1
    | None ->
      print_endline "no violation on replay";
      1)
  | None ->
    if smoke then mc_smoke seed
    else begin
      let base =
        match mutate with Some m -> Mc.mutation_preset m | None -> Mc.default
      in
      let ov v = function Some x -> x | None -> v in
      let cfg =
        {
          base with
          Mc.seed;
          replicas = ov base.Mc.replicas replicas;
          clients = ov base.Mc.clients clients;
          writes = ov base.Mc.writes writes;
          reads = ov base.Mc.reads reads;
          crash_budget = ov base.Mc.crash_budget crashes;
          drop_budget = ov base.Mc.drop_budget drops;
          delays =
            (match delay_mult with
            | Some m when m > 1 -> [| 1; m |]
            | _ -> base.Mc.delays);
          dpor = not naive;
          read_fastpath = base.Mc.read_fastpath && not no_fastpath;
          pool_workers = ov base.Mc.pool_workers pool;
          max_branch = ov base.Mc.max_branch max_branch;
          max_runs = ov base.Mc.max_runs max_runs;
        }
      in
      let name =
        match mutate with
        | Some m -> "mutate:" ^ Mc.mutation_name m
        | None -> "explore"
      in
      let o = mc_explore ~name cfg in
      match (o.Mc.o_violation, mutate) with
      | Some v, _ ->
        mc_print_violation v;
        (match trace_out with
        | Some file ->
          Mc.write_trace cfg v file;
          Printf.printf "counterexample written to %s\n" file
        | None -> ());
        (* finding the reintroduced bug is the expected outcome *)
        if mutate = None then 1 else 0
      | None, Some _ ->
        print_endline "mutation NOT killed within the bounds";
        1
      | None, None ->
        print_endline "no violations";
        0
    end

(* ---- profile: commit critical path and the what-if latency lab ---- *)

module Critical_path = Crane_trace.Critical_path

type whatif = Fsync2x | Nobatch

let all_whatifs = [ ("fsync2x", Fsync2x); ("nobatch", Nobatch) ]

let whatif_name w = fst (List.find (fun (_, v) -> v = w) all_whatifs)

let whatif_doc = function
  | Fsync2x -> "WAL fsync device 2x faster"
  | Nobatch -> "proxy batch delay removed"

(* Virtual speedup, Coz-style: instead of sampling and inflating
   everything else, the simulator re-runs the same seed with one stage's
   modeled cost scaled, and the delta is measured end to end. *)
let whatif_cfg (cfg : Instance.config) = function
  | Fsync2x -> { cfg with Instance.wal_write_latency = cfg.Instance.wal_write_latency / 2 }
  | Nobatch -> { cfg with Instance.batch_delay = 0 }

type profile_run = {
  p_report : Critical_path.report;
  p_load : Loadgen.result;
  p_trace : Trace.t;
}

let profiled_run (s : Servers.t) ~clients ~requests ~seed ~tweak =
  let server = s.server ~hints:true and port = s.port in
  let request = s.request (Rng.create (seed + 1)) in
  let tr = Trace.create () in
  let cfg =
    { Instance.default_config with mode = Instance.Full; service_port = port;
      paxos = Servers.fast_paxos }
  in
  let cfg = match tweak with None -> cfg | Some w -> whatif_cfg cfg w in
  let cluster = Cluster.create ~seed ~cfg ~trace:tr ~server () in
  Cluster.start cluster;
  let target = Target.cluster cluster ~port in
  let handle = Loadgen.run ~clients ~requests ~request target in
  Loadgen.drive ~timeout:(Time.sec 3600) target handle;
  (* let trailing closes commit and backup admissions land so the last
     span DAGs are complete before analysis *)
  let eng = Cluster.engine cluster in
  Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
  Cluster.check_failures cluster;
  { p_report = Critical_path.analyze tr; p_load = handle.Loadgen.collect (); p_trace = tr }

let whatif_row ~base ~variant w =
  let b = base.p_report.Critical_path.e2e and v = variant.p_report.Critical_path.e2e in
  let delta = b.Metrics.mean -. v.Metrics.mean in
  [ whatif_name w; whatif_doc w;
    Printf.sprintf "%.1f" (b.Metrics.mean /. 1e3);
    Printf.sprintf "%.1f" (v.Metrics.mean /. 1e3);
    Printf.sprintf "%+.1f" (delta /. 1e3);
    (if b.Metrics.mean > 0.0 then Printf.sprintf "%+.1f%%" (100. *. delta /. b.Metrics.mean)
     else "-") ]

let profile_cmd (s : Servers.t) clients requests seed whatifs trace_out =
  Printf.printf "profiling %s: %d clients, %d requests, seed %d (crane mode)\n"
    s.name clients requests seed;
  let base = profiled_run s ~clients ~requests ~seed ~tweak:None in
  print_string (Critical_path.render base.p_report);
  if whatifs <> [] then begin
    let rows =
      List.map
        (fun w ->
          let variant = profiled_run s ~clients ~requests ~seed ~tweak:(Some w) in
          whatif_row ~base ~variant w)
        whatifs
    in
    Table.print ~title:"what-if latency lab (same seed, virtual speedup)"
      ~header:[ "what-if"; "change"; "base e2e mean us"; "e2e mean us"; "delta us"; "delta" ]
      rows;
    print_newline ()
  end;
  (match trace_out with
  | Some path -> (
    match open_out path with
    | oc ->
      output_string oc (Trace.to_chrome base.p_trace);
      close_out oc;
      (* stderr: the report on stdout stays byte-comparable across runs
         regardless of export options *)
      Printf.eprintf "base-run trace -> %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "crane: cannot write trace: %s\n" msg;
      exit 1)
  | None -> ());
  if base.p_report.Critical_path.errors <> [] then begin
    Printf.printf "profile: %d malformed span DAG(s)\n"
      (List.length base.p_report.Critical_path.errors);
    1
  end
  else 0

(* ---- bench latency: stage decomposition and what-if deltas ---- *)

let summary_rows case prefix (s : Metrics.summary) =
  let ns name v = Rows.row case (prefix ^ "." ^ name) "ns" Rows.Lower (float v) in
  [ Rows.row case (prefix ^ ".count") "count" Rows.Higher (float s.Metrics.count);
    ns "p50" s.Metrics.p50; ns "p90" s.Metrics.p90; ns "p99" s.Metrics.p99;
    ns "max" s.Metrics.max;
    Rows.row case (prefix ^ ".mean") "ns" Rows.Lower s.Metrics.mean;
    ns "total" s.Metrics.total ]

let min_span_coverage = 0.99

let bench_latency ~quick ~seed =
  let clients = if quick then 4 else 8 in
  let requests = if quick then 60 else 200 in
  let per_server (s : Servers.t) =
    let name = s.name in
    let case = Printf.sprintf "%s (%d clients, %d requests)" name clients requests in
    let r = (profiled_run s ~clients ~requests ~seed ~tweak:None).p_report in
    let whatif (wname, w) =
      let v = (profiled_run s ~clients ~requests ~seed ~tweak:(Some w)).p_report in
      let ve = v.Critical_path.e2e.Metrics.mean in
      Rows.
        [ row case (wname ^ ".e2e_mean") "ns" Lower ve;
          row case (wname ^ ".delta") "ns" Higher (r.Critical_path.e2e.Metrics.mean -. ve);
          row case (wname ^ ".coverage") "ratio" Higher v.Critical_path.coverage ]
    in
    let rows =
      Rows.
        [ row case "committed" "count" Higher (float r.Critical_path.committed);
          row case "complete" "count" Higher (float r.Critical_path.complete);
          row case "coverage" "ratio" Higher r.Critical_path.coverage;
          row case "span_errors" "count" Lower (float (List.length r.Critical_path.errors)) ]
      @ summary_rows case "e2e" r.Critical_path.e2e
      @ List.concat_map
          (fun s -> summary_rows case s.Critical_path.stage s.Critical_path.summary)
          r.Critical_path.stages
      @ List.concat_map whatif all_whatifs
    in
    let v = Rows.value rows case in
    ( rows,
      [ Rows.at_least (name ^ ": span coverage") (v "coverage") min_span_coverage;
        Rows.none (name ^ ": malformed span DAGs") (v "span_errors");
        (Printf.sprintf "%s: fsync2x what-if moves e2e mean by %.0f ns (nonzero)" name
           (v "fsync2x.delta"),
         v "fsync2x.delta" <> 0.) ] )
  in
  let results = List.map per_server Servers.all in
  (List.concat_map fst results, List.concat_map snd results)

(* ---- bench parallel: dependency-aware parallel delivery ---- *)

module Certifier = Crane_analysis.Certifier
module Api = Crane_core.Api

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

let parallel_run app ~case ~pool ~clients ~per_client ~seed =
  let server, port = papp_server app in
  let tr = Trace.create () in
  let cfg =
    { Instance.default_config with mode = Instance.Full; service_port = port;
      paxos = Servers.fast_paxos; pool_workers = pool }
  in
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
    let rec settle () =
      if (not !seeded) && Engine.now eng < Time.sec 60 then begin
        Cluster.run ~until:(Engine.now eng + Time.ms 100) cluster;
        settle ()
      end
    in
    settle ()
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
  let deadline = Engine.now eng + Time.sec 600 in
  let rec go () =
    if !live > 0 && Engine.now eng < deadline then begin
      Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
      go ()
    end
  in
  go ();
  (* Drain trailing closes so the last execute windows end before
     analysis. *)
  Cluster.run ~until:(Engine.now eng + Time.ms 500) cluster;
  Cluster.check_failures cluster;
  let cp = Critical_path.analyze tr in
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
  let cert = Certifier.check tr in
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

let min_parallel_speedup = 1.5

let bench_parallel ~quick ~seed =
  let clients = 8 and workers = 4 in
  let per_client = if quick then 6 else 16 in
  let per_app (name, app) =
    let case pool = Printf.sprintf "%s, %s (%d clients x %d)" name pool clients per_client in
    let off = case "pool off" and on = case (Printf.sprintf "pool x%d" workers) in
    let serial, serial_out = parallel_run app ~case:off ~pool:1 ~clients ~per_client ~seed in
    let pooled, pooled_out = parallel_run app ~case:on ~pool:workers ~clients ~per_client ~seed in
    let mean rows case = Rows.value rows case "commit_reply_mean" in
    let speedup = if mean pooled on > 0.0 then mean serial off /. mean pooled on else 0.0 in
    serial @ pooled
    @ Rows.
        [ row on "speedup" "x" Higher speedup;
          flag on "outputs_identical" (serial_out = pooled_out);
          flag on "certified" (Rows.value pooled on "cert_violations" = 0.) ]
  in
  let rows = List.concat_map per_app all_papps in
  ( rows,
    [ Rows.at_least "best commit->reply speedup"
        (List.fold_left max 0. (Rows.values rows "speedup"))
        min_parallel_speedup;
      Rows.none "request errors" (List.fold_left ( +. ) 0. (Rows.values rows "errors")) ] )

(* ---- bench: the registry and the one command over it ---- *)

type bench = { name : string; run : quick:bool -> seed:int -> Rows.row list * Rows.gate list }

let benches =
  [ { name = "batching"; run = bench_batching };
    { name = "recovery"; run = bench_recovery };
    { name = "latency"; run = bench_latency };
    { name = "reconfig"; run = bench_reconfig };
    { name = "readmix"; run = bench_readmix };
    { name = "parallel"; run = bench_parallel };
    { name = "paper"; run = Crane_workload.Paper.run } ]

let bench_cmd chosen quick seed check =
  let passed b =
    let path = Printf.sprintf "BENCH_%s.json" b.name in
    (* the committed baseline, read before the run overwrites it *)
    let baseline = if check then Some (Rows.read path) else None in
    Printf.printf "bench %s...\n%!" b.name;
    let rows, gates = b.run ~quick ~seed in
    let current = { Rows.bench = b.name; seed; quick; rows } in
    Rows.write path current;
    Table.print
      ~title:(Printf.sprintf "bench %s (seed %d, quick %b)" b.name seed quick)
      ~header:[ "case"; "metric"; "value"; "unit" ]
      (List.map (fun r -> Rows.[ r.case; r.metric; Printf.sprintf "%.10g" r.value; r.unit ]) rows);
    Printf.printf "wrote %s\n" path;
    let drift =
      match baseline with
      | None -> []
      | Some None -> [ (Printf.sprintf "drift: no readable baseline %s" path, false) ]
      | Some (Some baseline) -> (
        match Rows.drift ~baseline ~current with
        | Error e -> [ ("drift: not comparable: " ^ e, false) ]
        | Ok [] ->
          [ (Printf.sprintf "drift: all %d rows of %s within %.0f%%"
               (List.length baseline.Rows.rows) path (100. *. Rows.tolerance),
             true) ]
        | Ok failures -> List.map (fun f -> ("drift: " ^ f, false)) failures)
    in
    let gates = gates @ Rows.flags rows @ drift in
    List.iter
      (fun (label, ok) -> Printf.printf "%s %s\n" (if ok then "  ok  " else "  FAIL") label)
      gates;
    List.for_all snd gates
  in
  let chosen = match chosen with [] -> benches | l -> l in
  let all_passed = List.for_all Fun.id (List.map passed chosen) in
  if check && not all_passed then 1 else 0

(* ---- cmdliner plumbing ---- *)

let server_arg =
  let choice = Arg.enum (List.map (fun (s : Servers.t) -> (s.name, s)) Servers.all) in
  Arg.(value & opt choice (Servers.find "apache") & info [ "server"; "s" ] ~doc:"Server program to run.")

let mode_arg =
  let choice = Arg.enum all_modes in
  Arg.(value & opt choice Crane & info [ "mode"; "m" ] ~doc:"Deployment mode.")

let clients_arg = Arg.(value & opt int 8 & info [ "clients"; "c" ] ~doc:"Concurrent clients.")
let requests_arg = Arg.(value & opt int 100 & info [ "requests"; "n" ] ~doc:"Total requests.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let format_arg =
  let choice = Arg.enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ] in
  Arg.(value & opt choice `Chrome
       & info [ "format"; "f" ] ~doc:"Trace output format: chrome (trace_event JSON) or jsonl.")

let out_arg =
  Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~doc:"Trace output file.")

let scenario_arg =
  Arg.(value & opt (some string) None
       & info [ "scenario" ] ~doc:"Chaos scenario to run (default: the whole suite).")

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List built-in chaos scenarios and exit.")

let bench_names_arg =
  let choice = Arg.enum (List.map (fun b -> (b.name, b)) benches) in
  Arg.(value & pos_all choice [] & info [] ~docv:"NAME" ~doc:"Benches to run (default: all).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller workloads, as CI runs them.")

let bench_check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Exit nonzero if any gate fails, or if any row regresses by more \
                 than 20% against the committed BENCH_<name>.json, or if that \
                 baseline is missing or was made with another seed or size.")

let run_term = Term.(const run_cmd $ server_arg $ mode_arg $ clients_arg $ requests_arg $ seed_arg)
let failover_term = Term.(const failover_cmd $ server_arg $ seed_arg)
let servers_term = Term.(const servers_cmd $ const ())

let chaos_term = Term.(const chaos_cmd $ scenario_arg $ seed_arg $ list_arg)

let bench_term = Term.(const bench_cmd $ bench_names_arg $ quick_arg $ seed_arg $ bench_check_arg)

let trace_term =
  Term.(const trace_cmd $ server_arg $ mode_arg $ clients_arg $ requests_arg
        $ seed_arg $ format_arg $ out_arg)

let analyze_targets_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"TARGET" ~doc:"Targets to analyze (default: all; see --list).")

let analyze_list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List analyze targets and exit.")

let analyze_term =
  Term.(const analyze_cmd $ analyze_targets_arg $ seed_arg $ analyze_list_arg)

let mc_opt_int names doc =
  Arg.(value & opt (some int) None & info names ~doc)

let mc_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let mc_mutate_arg =
  let choice =
    Arg.enum
      [ ("hole-backfill", Mc.Hole_backfill); ("dup-accept", Mc.Dup_accept) ]
  in
  Arg.(value & opt (some choice) None
       & info [ "mutate" ]
           ~doc:"Reintroduce a fixed paxos bug (hole-backfill, dup-accept) \
                 and require the checker to find it: exit 0 iff a violation \
                 is found and its counterexample replays.")

let mc_naive_arg =
  Arg.(value & flag
       & info [ "naive" ]
           ~doc:"Disable DPOR: enumerate every delivery interleaving \
                 (baseline for the pruning-factor measurement).")

let mc_no_fastpath_arg =
  Arg.(value & flag
       & info [ "no-fastpath" ] ~doc:"Disable the read fast path (all reads \
                                      go through consensus).")

let mc_trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ]
           ~doc:"Write the counterexample schedule to this file (replayable \
                 with --replay).")

let mc_replay_arg =
  Arg.(value & opt (some string) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-execute a recorded counterexample trace and report \
                 whether the violation reproduces.")

let mc_smoke_arg =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"CI matrix: explore a clean config with and without a crash \
                 (expect no violations), then prove both mutations are \
                 killed with replayable counterexamples.")

let mc_term =
  Term.(const mc_cmd $ mc_seed_arg
        $ mc_opt_int [ "replicas" ] "Cluster size (default 3)."
        $ mc_opt_int [ "clients" ] "Concurrent clients (default 2)."
        $ mc_opt_int [ "writes" ] "Writes per client (default 2)."
        $ mc_opt_int [ "reads" ] "Fast-path reads per client (default 1)."
        $ mc_opt_int [ "crashes" ] "Crash budget (default 0)."
        $ mc_opt_int [ "drops" ] "Message-drop budget (default 0)."
        $ mc_opt_int [ "delay-mult" ]
            "Arm a second delivery-latency bucket at this multiple of the \
             base latency."
        $ mc_naive_arg $ mc_no_fastpath_arg
        $ mc_opt_int [ "pool" ] "Parallel-pool workers (default 1)."
        $ mc_mutate_arg
        $ mc_opt_int [ "max-branch" ]
            "Branchable choice points per execution (default 18)."
        $ mc_opt_int [ "max-runs" ] "Schedule budget (default 3000)."
        $ mc_trace_out_arg $ mc_replay_arg $ mc_smoke_arg)

let whatif_arg =
  let choice = Arg.enum all_whatifs in
  Arg.(value & opt_all choice []
       & info [ "what-if"; "w" ]
           ~doc:"Re-run the same seed with a stage's virtual cost scaled and \
                 report the end-to-end delta (fsync2x, nobatch); repeatable.")

let profile_trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ]
           ~doc:"Also export the base run's trace (chrome trace_event JSON).")

let profile_term =
  Term.(const profile_cmd $ server_arg $ clients_arg $ requests_arg $ seed_arg
        $ whatif_arg $ profile_trace_out_arg)

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Run a workload against a server in a chosen deployment mode.") run_term;
    Cmd.v (Cmd.info "failover" ~doc:"Kill the primary under load, recover from a checkpoint.") failover_term;
    Cmd.v (Cmd.info "chaos" ~doc:"Run the deterministic fault-injection suite and check SMR invariants.") chaos_term;
    Cmd.v (Cmd.info "trace" ~doc:"Run a workload with the flight recorder on; export the trace and metrics.") trace_term;
    Cmd.v
      (Cmd.info "bench"
         ~doc:(Printf.sprintf
                 "Run benches (%s); write each one's rows to BENCH_<name>.json \
                  and print its gates."
                 (String.concat ", " (List.map (fun b -> b.name) benches))))
      bench_term;
    Cmd.v
      (Cmd.info "profile"
         ~doc:"Commit critical-path profile: per-stage latency decomposition, \
               per-view stalls, blocked-on attribution, what-if latency lab.")
      profile_term;
    Cmd.v
      (Cmd.info "mc"
         ~doc:"Crane-MC: systematically explore delivery orders, drops, \
               delays and crashes with DPOR; check SMR invariants and \
               linearizability of the client history at every terminal \
               state.")
      mc_term;
    Cmd.v
      (Cmd.info "analyze"
         ~doc:"Crane-San: race detection, lock-order lint and determinism \
               certification across the bundled servers and runtimes.")
      analyze_term;
    Cmd.v (Cmd.info "servers" ~doc:"List available servers and modes.") servers_term;
  ]

let () =
  let info = Cmd.info "crane" ~doc:"CRANE: transparent state machine replication (simulated)." in
  exit (Cmd.eval' (Cmd.group info cmds))
