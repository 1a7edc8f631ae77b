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
module Paxos = Crane_paxos.Paxos
module Loadgen = Crane_workload.Loadgen
module Servers = Crane_workload.Servers
module Stats = Crane_report.Stats
module Table = Crane_report.Table
module Rows = Crane_report.Rows
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
module Critical_path = Crane_trace.Critical_path
open Crane_benches
open Cmdliner

(* A deployment mode: one un-replicated server, or a 3-replica cluster. *)
type deployment = Alone of Standalone.mode | Replicated of Instance.mode

let all_modes =
  [ ("native", Alone Standalone.Native); ("parrot", Alone Standalone.Parrot);
    ("paxos-only", Replicated Instance.Paxos_only); ("crane", Replicated Instance.Full);
    ("plan2", Replicated Instance.No_bubbling) ]

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

(* [s]'s workload under [mode], with the flight recorder [trace] attached
   if given: the one body of the [run] and [trace] commands.  Returns the
   cluster too when there is one. *)
let run_workload ?trace (s : Servers.t) mode ~clients ~requests ~seed =
  let server = s.server ~hints:true in
  let load = Harness.closed_loop ~clients ~requests ~rng:(Rng.create (seed + 1)) s in
  match mode with
  | Alone mode -> (Harness.on_standalone ?trace ~seed ~mode ~server ~port:s.port load, None)
  | Replicated mode ->
    let cfg = Harness.fast_cfg ~mode ~port:s.port in
    let r, cluster = Harness.on_cluster ?trace ~checkpoints:true ~seed ~cfg ~server (fun _ -> load) in
    (r, Some cluster)

let run_cmd (s : Servers.t) mode clients requests seed =
  (match run_workload s mode ~clients ~requests ~seed with
  | r, None -> report "un-replicated" r
  | r, Some cluster ->
    report "3-replica cluster" r;
    Printf.printf "  replica outputs identical: %b\n" (Harness.consistent cluster));
  0

let failover_cmd (s : Servers.t) seed =
  let cfg =
    { Instance.default_config with service_port = s.port; checkpoint_period = Time.sec 2 }
  in
  let r, cluster =
    Harness.on_cluster ~checkpoints:true ~linger:(Time.sec 10) ~timeout:(Time.sec 600) ~seed
      ~cfg ~server:(s.server ~hints:true) (fun cluster target ->
        let handle =
          Loadgen.run ~think:(Time.ms 50) ~clients:4 ~requests:400
            ~request:(s.request (Rng.create (seed + 1))) target
        in
        let eng = Cluster.engine cluster in
        Engine.at eng (Time.sec 5) (fun () ->
            Printf.printf "[5s] killing primary\n";
            Cluster.kill cluster "replica1");
        Engine.at eng (Time.sec 12) (fun () ->
            Printf.printf "[12s] restarting replica1 from checkpoint\n";
            ignore (Cluster.restart cluster "replica1"));
        handle)
  in
  report "failover run" r;
  (match Cluster.primary cluster with
  | Some (n, p) ->
    Printf.printf "primary now: %s (view %d)%s\n" n (Paxos.view p.Instance.paxos)
      (match (Paxos.stats p.Instance.paxos).Paxos.last_election_duration with
      | Some d -> Printf.sprintf ", election took %s" (Time.to_string d)
      | None -> "")
  | None -> print_endline "no primary!");
  0

(* Write [tr]'s export to [path].  An export that lost events beyond the
   retention limit is not the run: its status is 1, and it names the
   count. *)
let export tr path to_string =
  (match open_out path with
  | oc ->
    output_string oc (to_string tr);
    close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "crane: cannot write trace: %s\n" msg;
    exit 1);
  match Trace.dropped tr with
  | 0 -> 0
  | n ->
    Printf.eprintf "crane: trace export dropped %d events beyond the retention limit\n" n;
    1

(* Run a workload with the flight recorder attached, export the trace
   (chrome://tracing JSON or JSONL) and print the aggregated metrics.
   Deterministic: the same seed yields a byte-identical trace file. *)
let trace_cmd (s : Servers.t) mode clients requests seed format out =
  let tr = Trace.create () in
  let met = Metrics.create () in
  Metrics.attach met tr;
  report "traced run" (fst (run_workload ~trace:tr s mode ~clients ~requests ~seed));
  let status =
    export tr out (match format with `Chrome -> Trace.to_chrome | `Jsonl -> Trace.to_jsonl)
  in
  Printf.printf "trace: %d events (%d dropped beyond limit) -> %s\n"
    (Trace.length tr) (Trace.dropped tr) out;
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
  status

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
    print_string (Chaos.render_summary ~seed reports);
    if List.for_all Chaos.passed reports then 0 else 1

(* ---- bench: run benches, write their rows, print their gates ----

   Each bench in {!Benches.all} measures and returns rows; [bench_cmd]
   writes them to BENCH_<name>.json and prints the bench's gates over
   them.  With --check it also drift-checks every row against the
   committed file, and fails if any gate or row does. *)

let bench_cmd chosen quick seed check =
  let passed (b : Benches.t) =
    let path = Printf.sprintf "BENCH_%s.json" b.name in
    (* the committed baseline, read before the run overwrites it *)
    let baseline = if check then Some (Rows.read path) else None in
    Printf.printf "bench %s...\n%!" b.name;
    let rows = b.run ~quick ~seed in
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
      | Some baseline -> Rows.drift_gates ~path ~baseline ~current
    in
    let gates = b.gates current @ drift in
    List.iter
      (fun (label, ok) -> Printf.printf "%s %s\n" (if ok then "  ok  " else "  FAIL") label)
      gates;
    List.for_all snd gates
  in
  let chosen = match chosen with [] -> Benches.all | l -> l in
  let all_passed = List.for_all Fun.id (List.map passed chosen) in
  if check && not all_passed then 1 else 0

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

(* Run one checked exploration and print it; true iff it passed.  Wall
   time goes to stderr: stdout stays deterministic for diffing. *)
let mc_step ~name ~must_fail ?trace cfg =
  let t0 = Sys.time () in
  let k = Mc.check ?trace cfg in
  let o = k.Mc.k_outcome in
  Printf.printf "[%s] %d schedules, %d deliveries, %s\n" name o.Mc.o_runs o.Mc.o_transitions
    (if o.Mc.o_complete then "explored to bound" else "run budget hit");
  Printf.eprintf "[%s] wall %.1fs\n%!" name (Sys.time () -. t0);
  (match o.Mc.o_violation with
  | None when must_fail -> Printf.printf "[%s] NOT KILLED: no violation within the bounds\n" name
  | None -> Printf.printf "[%s] no violations\n" name
  | Some v -> (
    if must_fail then Printf.printf "[%s] killed by %s — %s\n" name v.v_invariant v.v_detail
    else begin
      Printf.printf "VIOLATION (schedule %d): %s — %s\n" v.v_run v.v_invariant v.v_detail;
      Printf.printf "counterexample schedule (%d choices):\n" (List.length v.v_choices);
      List.iter
        (fun (c : Mc.choice) ->
          Printf.printf "  %-12s %d/%d  %s\n" c.c_label c.c_taken c.c_width c.c_key)
        v.v_choices
    end;
    Option.iter (Printf.printf "[%s] counterexample written to %s\n" name) trace;
    match k.Mc.k_replay with
    | Some Mc.Reproduced -> Printf.printf "[%s] replay reproduces the %s violation\n" name v.v_invariant
    | Some (Mc.Diverged (inv, d)) -> Printf.printf "[%s] replay diverged: got %s — %s\n" name inv d
    | Some Mc.Lost -> Printf.printf "[%s] replay FAILED to reproduce the violation\n" name
    | None -> ()));
  Mc.passed ~must_fail k

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
  | None when smoke ->
    (* every step runs, even after one fails *)
    let results =
      List.map
        (fun (s : Mc.step) ->
          mc_step ~name:s.s_name ~must_fail:s.s_must_fail ~trace:s.s_trace s.s_cfg)
        (Mc.smoke ~seed)
    in
    let ok = List.for_all Fun.id results in
    print_endline (if ok then "mc smoke: PASS" else "mc smoke: FAIL");
    if ok then 0 else 1
  | None ->
    let base = match mutate with Some m -> Mc.mutation_preset m | None -> Mc.default in
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
          (match delay_mult with Some m when m > 1 -> [| 1; m |] | _ -> base.Mc.delays);
        dpor = not naive;
        read_fastpath = base.Mc.read_fastpath && not no_fastpath;
        pool_workers = ov base.Mc.pool_workers pool;
        max_branch = ov base.Mc.max_branch max_branch;
        max_runs = ov base.Mc.max_runs max_runs;
      }
    in
    let name = match mutate with Some m -> "mutate:" ^ Mc.mutation_name m | None -> "explore" in
    if mc_step ~name ~must_fail:(mutate <> None) ?trace:trace_out cfg then 0 else 1

(* ---- profile: commit critical path and the what-if latency lab ---- *)

let profile_cmd (s : Servers.t) clients requests seed whatifs trace_out =
  Printf.printf "profiling %s: %d clients, %d requests, seed %d (crane mode)\n"
    s.name clients requests seed;
  (* only an export keeps events: the analysis streams *)
  let tr = Trace.create ~retain:(trace_out <> None) () in
  let run trace tweak = Latency.profiled_run ~trace s ~clients ~requests ~seed ~tweak in
  let base = run tr None in
  print_string (Critical_path.render base);
  let variant w = run (Trace.create ~retain:false ()) (Some w) in
  if whatifs <> [] then begin
    Table.print ~title:"what-if latency lab (same seed, virtual speedup)"
      ~header:[ "what-if"; "change"; "base e2e mean us"; "e2e mean us"; "delta us"; "delta" ]
      (List.map (fun w -> Latency.whatif_row ~base ~variant:(variant w) w) whatifs);
    print_newline ()
  end;
  let exported =
    match trace_out with
    | None -> 0
    | Some path ->
      let status = export tr path Trace.to_chrome in
      (* stderr: the report on stdout stays byte-comparable across runs
         regardless of export options *)
      Printf.eprintf "base-run trace -> %s\n" path;
      status
  in
  let errors = List.length base.Critical_path.errors in
  if errors > 0 then Printf.printf "profile: %d malformed span DAG(s)\n" errors;
  if errors > 0 || exported <> 0 then 1 else 0

(* ---- cmdliner plumbing ---- *)

let server_arg =
  let choice = Arg.enum (List.map (fun (s : Servers.t) -> (s.name, s)) Servers.all) in
  Arg.(value & opt choice (Servers.find "apache") & info [ "server"; "s" ] ~doc:"Server program to run.")

let mode_arg =
  let choice = Arg.enum all_modes in
  Arg.(value & opt choice (Replicated Instance.Full) & info [ "mode"; "m" ] ~doc:"Deployment mode.")

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
  let choice = Arg.enum (List.map (fun (b : Benches.t) -> (b.name, b)) Benches.all) in
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
  let choice = Arg.enum Latency.all_whatifs in
  Arg.(value & opt_all choice []
       & info [ "what-if"; "w" ] ~docv:"WHATIF"
           ~doc:("Re-run the same seed with a stage's virtual cost scaled and \
                  report the end-to-end delta; repeatable.  $(docv) must be "
                 ^ Arg.doc_alts_enum Latency.all_whatifs ^ "."))

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
                 (String.concat ", " (List.map (fun (b : Benches.t) -> b.name) Benches.all))))
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
