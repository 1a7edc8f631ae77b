(* crane_bench: the end-to-end benchmark of the CRANE reproduction, on two
   clocks — client latency in virtual time, simulator cost in host time.

     dune exec bench/perf/crane_bench.exe -- --seed 1
         every workload, each in fresh processes; prints every metric
     dune exec bench/perf/crane_bench.exe -- --workload oltp --seed 1 \
         --seconds 20 --trace 0
         one workload: end-to-end metrics (--trace 1: per-layer metrics);
         the last line of output is one JSON object
     dune exec bench/perf/crane_bench.exe -- compare A.json B.json
         judge two result files (--out) against BENCHMARK.json's bounds

   See bench/perf/README.md for the workloads and what each metric
   should move. *)

module Time = Crane_sim.Time
module Cluster = Crane_core.Cluster
module Instance = Crane_core.Instance
module Proxy = Crane_core.Proxy
module Vhost = Crane_core.Vhost
module Paxos_seq = Crane_core.Paxos_seq
module Paxos = Crane_paxos.Paxos
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Manager = Crane_checkpoint.Manager
module Trace = Crane_trace.Trace
module Critical_path = Crane_trace.Critical_path
module Metrics = Crane_trace.Metrics
module W = Workloads
open Crane_perf

(* ------------------------------------------------------------------ *)
(* Results of one process: metric values with the samples behind them,
   and the names of failed checks. *)

type value = {
  v : float;
  n : int;  (** samples or repetitions behind the value *)
  spread : float option;  (** (q3 - q1) / median of repetitions *)
}

type result = {
  mutable values : (string * value) list;  (** newest first *)
  mutable notes : string list;  (** printed under the metrics, newest first *)
  mutable failed_checks : string list;
  mutable attempted : int;
  mutable failed : int;
}

let new_result () = { values = []; notes = []; failed_checks = []; attempted = 0; failed = 0 }
let note r fmt = Printf.ksprintf (fun s -> r.notes <- s :: r.notes) fmt
let set r ?(n = 1) ?spread name v = r.values <- (name, { v; n; spread }) :: r.values
let fail_check r name = if not (List.mem name r.failed_checks) then r.failed_checks <- r.failed_checks @ [ name ]

let ms t = Time.to_float_ms t
let ratio a b = if b = 0 then 0.0 else float a /. float b
let pct a b = 100.0 *. ratio a b

(* ------------------------------------------------------------------ *)
(* Latency metrics of one measured run (virtual time). *)

let successful_ms (o : W.outcome) pick =
  let acc = ref [] in
  Array.iteri (fun i l -> if l >= 0 && pick i then acc := ms l :: !acc) o.W.lat;
  Measure.sorted_floats !acc

(* A percentile with at least ten samples beyond it, or a failed check. *)
let percentile_metric r name sorted p =
  let n = Array.length sorted in
  if not (Measure.supported ~n p) then fail_check r (name ^ "_samples");
  set r name ~n (if n = 0 then 0.0 else Measure.percentile sorted p)

let max_gap_ms (o : W.outcome) =
  let done_at = List.filter (fun t -> t >= 0) (Array.to_list o.W.done_at) in
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (max acc (b - a)) rest
    | _ -> acc
  in
  ms (go 0 (List.sort compare done_at))

(* Everything virtual a run determines: the determinism fingerprint of
   repeated runs. *)
let fingerprint (o : W.outcome) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (o.W.lat, o.W.done_at, o.W.failed, o.W.bad_replies, o.W.acks, o.W.reads, o.W.dead)
          []))

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics, with tracing and the sampler off. *)

(* Highest Poisson rate with no failures, p99 <= 10 ms and no growing
   backlog: the p50 of the last quarter of arrivals at most twice that
   of the first quarter. *)
let capacity spec ~seed r =
  let probe_n = 1000 and quarter = 250 in
  let pass rate =
    let arrivals = spec.W.schedule ~seed ~rate probe_n in
    let c = W.boot spec ~calls:(Probes.app_calls ()) in
    let o = W.run_crane spec c.W.cluster arrivals in
    let p50 lo hi = Measure.percentile (successful_ms o (fun i -> i >= lo && i < hi)) 0.5 in
    let all = successful_ms o (fun _ -> true) in
    let ok =
      o.W.failed = 0
      && Measure.percentile all 0.99 <= 10.0
      && p50 (probe_n - quarter) probe_n <= 2.0 *. p50 0 quarter
    in
    note r "capacity probe %.0f rps: %s" rate (if ok then "pass" else "fail");
    ok
  in
  Option.value (Measure.bisect ~lo:500.0 ~hi:16000.0 ~probes:6 pass) ~default:0.0

let min_setups = 15
let max_reps = 50

(* Everything but the capacity bisection counts against [seconds]: the
   native baseline, the measured repetitions, and the set-ups that top
   the repetitions' own up to [min_setups].  A repetition starts only
   when it and the set-ups still owed after it fit in what is left; the
   first always runs. *)
let end_to_end spec ~seed ~seconds ~with_capacity r =
  let started = Unix.gettimeofday () in
  let arrivals = spec.W.schedule ~seed ~rate:spec.W.rate spec.W.arrivals in
  let calls = Probes.app_calls () in
  let native = W.run_native spec arrivals in
  let setup () =
    Gc.compact ();
    W.boot spec ~calls
  in
  let setups = ref [] and hosts = ref [] in
  let first = ref None and heap_words = ref 0 in
  let longest = ref 0.0 and longest_setup = ref 0.0 in
  let rec rep k =
    let t = Unix.gettimeofday () in
    let c = setup () in
    longest_setup := Float.max !longest_setup (Unix.gettimeofday () -. t);
    let o = W.run_crane spec c.W.cluster arrivals in
    setups := c.W.setup_s :: !setups;
    hosts := o.W.host_s :: !hosts;
    r.attempted <- r.attempted + o.W.n;
    r.failed <- r.failed + o.W.failed;
    (* The first run is checked in full; the others must repeat it.  The
       heap peak is read after the first run: everything up to there is
       the same on every invocation, so the peak repeats exactly, while
       how many runs follow depends on the host's speed. *)
    (match !first with
    | None ->
      W.quiesce spec c.W.cluster;
      List.iter (fail_check r) (W.check_outputs spec c.W.cluster o);
      first := Some (o, fingerprint o);
      heap_words := (Gc.quick_stat ()).Gc.top_heap_words
    | Some (_, fp) -> if fingerprint o <> fp then fail_check r "same_seed_identical");
    longest := Float.max !longest (Unix.gettimeofday () -. t);
    let elapsed = Unix.gettimeofday () -. started in
    let owed = max 0 (min_setups - (k + 1)) in
    if k < max_reps && elapsed +. !longest +. (float owed *. !longest_setup) <= seconds then
      rep (k + 1)
  in
  rep 1;
  (* Set-up is cheap next to a measured run: top it up to a steady
     median when the runs alone gave too few samples. *)
  while List.length !setups < min_setups do
    setups := (setup ()).W.setup_s :: !setups
  done;
  let o = match !first with Some (o, _) -> o | None -> assert false in
  note r "%d measured runs, host_s each:%s" (List.length !hosts)
    (String.concat "" (List.rev_map (Printf.sprintf " %.3f") !hosts));
  let host name l =
    let n = List.length l in
    set r name ~n ?spread:(if n > 1 then Some (Measure.spread l) else None) (Measure.median l)
  in
  host "setup_s" !setups;
  (* The first run also grows the heap to its working size, and runs
     slower for it: it counts only when it is the only one. *)
  host "host_s" (match List.rev !hosts with _ :: (_ :: _ as warm) -> warm | once -> once);
  let all = successful_ms o (fun _ -> true) in
  let writes = successful_ms o (fun i -> o.W.writes.(i)) in
  percentile_metric r "lat_p50_ms" all 0.5;
  percentile_metric r "lat_p99_ms" all 0.99;
  percentile_metric r "write_p99_ms" writes 0.99;
  let native_all = successful_ms native (fun _ -> true) in
  if native.W.failed > 0 || native.W.bad_replies <> [] then fail_check r "native_baseline";
  let p50 a = if Array.length a = 0 then 0.0 else Measure.percentile a 0.5 in
  set r "p50_over_native" ~n:(Array.length all)
    (if p50 native_all > 0.0 then p50 all /. p50 native_all else 0.0);
  set r "fail_frac" ~n:o.W.n (ratio o.W.failed o.W.n);
  if spec.W.failover then set r "unavail_ms" ~n:(Array.length all) (max_gap_ms o);
  set r "heap_peak_mb" (float (!heap_words * (Sys.word_size / 8)) /. 1048576.0);
  if with_capacity && spec.W.app = W.Sql then set r "max_rate_rps" ~n:6 (capacity spec ~seed r)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics.  One untraced run gives the GC deltas
   and the work counts; one traced run of the same arrivals, in a fresh
   cluster, gives the host profile, the engine queue depth and the
   virtual stages. *)

let live_stats c = List.map (fun (_, i) -> Paxos.stats i.Instance.paxos) (Cluster.instances c)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let max_of f l = List.fold_left (fun acc x -> max acc (f x)) 0 l

(* Boot members keep their WAL after a crash; a replacement has one once
   it is up. *)
let wal_writes c =
  let nodes = Cluster.default_members @ List.map fst (Cluster.instances c) in
  sum (fun n -> Wal.writes (Cluster.wal_for c n)) (List.sort_uniq compare nodes)

let primary_decisions c =
  match Cluster.primary c with
  | Some (_, i) -> (Paxos.stats i.Instance.paxos).Paxos.decisions
  | None -> 0

let work_counts c arrivals (o : W.outcome) ~calls ~before r =
  let n = o.W.n in
  let delivered0, dropped0, wal0, decisions0 = before in
  let fabric = Cluster.fabric c in
  let stats = live_stats c in
  set r "paxos.decisions_per_op" (ratio (primary_decisions c - decisions0) n);
  (match Cluster.primary c with
  | Some (_, i) ->
    let calls_, bubbles = Instance.seq_stats i in
    set r "paxos.bubble_pct" (pct bubbles (calls_ + bubbles));
    let ps = Paxos.stats i.Instance.paxos in
    let batches = sum snd ps.Paxos.events_per_batch in
    let events = sum (fun (size, k) -> size * k) ps.Paxos.events_per_batch in
    set r "paxos.mean_batch" (ratio events batches);
    set r "paxos.election_ms"
      (match ps.Paxos.last_election_duration with Some d -> ms d | None -> 0.0)
  | None ->
    List.iter (fun k -> set r k 0.0) [ "paxos.bubble_pct"; "paxos.mean_batch"; "paxos.election_ms" ]);
  set r "net.msgs_per_op" (ratio (Fabric.delivered fabric - delivered0) n);
  set r "net.dropped" (float (Fabric.dropped fabric - dropped0));
  set r "wal.writes_per_op" (ratio (wal_writes c - wal0) n);
  let proxies = List.map (fun (_, i) -> Proxy.stats i.Instance.proxy) (Cluster.instances c) in
  let reads =
    Array.fold_left
      (fun acc a -> match a.Gen.op with Gen.Get _ -> acc + 1 | _ -> acc)
      0 arrivals
  in
  set r "read.lease_pct" (pct (sum (fun s -> s.Proxy.lease_reads) proxies) reads);
  set r "read.backup_pct" (pct (sum (fun s -> s.Proxy.backup_reads) proxies) reads);
  set r "read.reject_pct" (pct (sum (fun s -> s.Proxy.lease_rejects) proxies) reads);
  set r "seq.max_depth"
    (float (max_of (fun (_, i) -> Paxos_seq.max_depth (Vhost.seq i.Instance.vhost)) (Cluster.instances c)));
  set r "app.footprint_calls_per_op" (ratio calls.Probes.footprint_calls n);
  set r "app.read_calls_per_op" (ratio calls.Probes.read_calls n);
  set r "paxos.view_changes" (float (sum (fun s -> s.Paxos.view_changes) stats));
  set r "paxos.catchup_installed" (float (sum (fun s -> s.Paxos.catchup_installed) stats));
  set r "ckpt.snapshots_installed" (float (sum (fun s -> s.Paxos.snapshots_installed) stats));
  set r "ckpt.taken"
    (float (sum (fun (_, i) -> Manager.checkpoints_taken i.Instance.manager) (Cluster.instances c)));
  set r "paxos.log_resident_peak" (float (max_of (fun s -> s.Paxos.peak_log_resident) stats));
  set r "gen.late_max_us" (Time.to_float_us o.W.late_max)

let counters_now c =
  let fabric = Cluster.fabric c in
  (Fabric.delivered fabric, Fabric.dropped fabric, wal_writes c, primary_decisions c)

let max_unattributed = 0.10

let per_layer spec ~seed r =
  (* Both runs take the first [traced_arrivals] of the schedule, so the
     traced run's cost compares with the untraced one's request for
     request (a ledger GET costs more as the ledger grows). *)
  let arrivals = spec.W.schedule ~seed ~rate:spec.W.rate spec.W.traced_arrivals in
  let calls = Probes.app_calls () in
  Gc.compact ();
  let c = W.boot spec ~calls in
  let before = counters_now c.W.cluster in
  let fp0 = calls.Probes.footprint_calls and rd0 = calls.Probes.read_calls in
  let gc0 = Probes.gc_now () in
  let o = W.run_crane spec c.W.cluster arrivals in
  let gc = Probes.gc_delta ~before:gc0 ~after:(Probes.gc_now ()) in
  W.quiesce spec c.W.cluster;
  calls.Probes.footprint_calls <- calls.Probes.footprint_calls - fp0;
  calls.Probes.read_calls <- calls.Probes.read_calls - rd0;
  List.iter (fail_check r) (W.check_outputs spec c.W.cluster o);
  r.attempted <- r.attempted + o.W.n;
  r.failed <- r.failed + o.W.failed;
  set r "gc.minor_mwords" (gc.Probes.minor_words /. 1e6);
  set r "gc.words_per_req" (gc.Probes.minor_words /. float o.W.n);
  set r "gc.major_collections" (float gc.Probes.major_collections);
  work_counts c.W.cluster arrivals o ~calls ~before r;
  let untraced_s = o.W.host_s in
  (* Traced: a retained recorder, the pending-event probe and the
     SIGPROF sampler.  A recorder holds millions of live events; a
     tighter major-heap overhead keeps the process near half a gigabyte. *)
  let tr = Trace.create () in
  let tcalls = Probes.app_calls () in
  Gc.compact ();
  Gc.set { (Gc.get ()) with Gc.space_overhead = 60 };
  let c = W.boot ~trace:tr spec ~calls:tcalls in
  let eng = Cluster.engine c.W.cluster in
  tcalls.Probes.timed <- true;
  let pending = Probes.sample_pending eng in
  let sampler = Sampler.create () in
  Sampler.start sampler;
  let o = W.run_crane spec c.W.cluster arrivals in
  Sampler.stop sampler;
  Probes.stop_pending pending;
  tcalls.Probes.timed <- false;
  W.quiesce ~trace:tr spec c.W.cluster;
  List.iter (fail_check r) (W.check_outputs spec c.W.cluster o);
  r.attempted <- r.attempted + o.W.n;
  r.failed <- r.failed + o.W.failed;
  let samples = Sampler.samples sampler in
  List.iter
    (fun l -> set r ("host_ms." ^ l) ~n:samples (Sampler.host_ms sampler l))
    Metric.host_layers;
  set r "host.samples" (float samples);
  let unattributed = Sampler.unattributed_frac sampler in
  set r "host.unattributed_pct" ~n:samples (100.0 *. unattributed);
  if samples = 0 || unattributed > max_unattributed then fail_check r "profile_attributed";
  set r "app.footprint_host_ms" (1000.0 *. tcalls.Probes.footprint_s);
  set r "app.read_host_ms" (1000.0 *. tcalls.Probes.read_s);
  set r "sim.pending_peak" ~n:pending.Probes.samples (float pending.Probes.peak);
  set r "sim.pending_mean" ~n:pending.Probes.samples (Probes.pending_mean pending);
  set r "trace.events" (float (Trace.length tr));
  set r "trace.overhead_pct" (100.0 *. ((o.W.host_s /. untraced_s) -. 1.0));
  if Trace.dropped tr > 0 then fail_check r "trace_dropped";
  let cp = Critical_path.analyze tr in
  List.iter
    (fun (row : Critical_path.stage_row) ->
      let s = row.Critical_path.summary in
      let n = s.Metrics.count in
      set r ("stage_p50_us." ^ row.Critical_path.stage) ~n (float s.Metrics.p50 /. 1e3);
      set r ("stage_p99_us." ^ row.Critical_path.stage) ~n (float s.Metrics.p99 /. 1e3))
    cp.Critical_path.stages;
  set r "cp.coverage" ~n:cp.Critical_path.committed cp.Critical_path.coverage;
  if cp.Critical_path.coverage < 0.99 then fail_check r "cp_coverage";
  if cp.Critical_path.errors <> [] then fail_check r "span_errors";
  let blocked label =
    List.fold_left
      (fun acc (b : Critical_path.blocked_row) ->
        if b.Critical_path.label = label then acc + b.Critical_path.blocked_ns else acc)
      0 cp.Critical_path.blocked_on
  in
  set r "blocked_ms.gate" (ms (blocked "gate.block"));
  set r "blocked_ms.dmt_turn" (ms (blocked "dmt.turn_wait"))

(* ------------------------------------------------------------------ *)
(* Output.  Humans get one line per metric, with unit and sample count;
   the last line is the result object.  Its metrics are exactly those of
   BENCHMARK.json for the clock run, each as {"value", "unit"}.  With
   [detail] (the all-workloads mode asks its children for it) they are
   every metric the run measured, each also with the samples behind it
   ("n") and the spread of its repetitions ("spread", 0 for one). *)

let metric_lines r =
  List.filter_map
    (fun (m : Metric.t) ->
      Option.map (fun v -> (m, v)) (List.assoc_opt m.Metric.name r.values))
    Metric.all

let print_human spec ~trace r =
  Printf.printf "%s (%s):\n" spec.W.name (if trace then "per-layer, traced" else "end-to-end");
  List.iter
    (fun ((m : Metric.t), v) ->
      Printf.printf "  %-30s %14.4f %-9s n=%-6d%s\n" m.Metric.name v.v m.Metric.unit_ v.n
        (match v.spread with
        | Some s -> Printf.sprintf " spread=%.1f%%" (100.0 *. s)
        | None -> ""))
    (metric_lines r);
  List.iter (Printf.printf "  %s\n") (List.rev r.notes);
  Printf.printf "  checks: %s\n"
    (match r.failed_checks with [] -> "all passed" | l -> "FAILED " ^ String.concat ", " l)

let result_json ~detail ~wanted r =
  let listed ((m : Metric.t), _) = List.memq m wanted in
  Json.Obj
    [
      ("correct", Json.Bool (r.failed_checks = []));
      ("attempted", Json.Num (float r.attempted));
      ("failed", Json.Num (float r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Metric.t), v) ->
               ( m.Metric.name,
                 Json.Obj
                   ([ ("value", Json.Num v.v); ("unit", Json.Str m.Metric.unit_) ]
                   @
                   if detail then
                     [
                       ("n", Json.Num (float v.n));
                       ("spread", Json.Num (Option.value v.spread ~default:0.0));
                     ]
                   else []) ))
             (if detail then metric_lines r else List.filter listed (metric_lines r))) );
    ]

let run_one spec ~seed ~seconds ~trace ~with_capacity ~detail =
  let r = new_result () in
  if trace then per_layer spec ~seed r
  else end_to_end spec ~seed ~seconds ~with_capacity r;
  let wanted = if trace then Metric.per_layer else Metric.end_to_end in
  List.iter
    (fun (m : Metric.t) ->
      if not (List.mem_assoc m.Metric.name r.values) then fail_check r ("missing_" ^ m.Metric.name))
    wanted;
  print_human spec ~trace r;
  print_endline (Json.to_string (result_json ~detail ~wanted r));
  if r.failed_checks = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* All workloads: each (workload, clock) pair in a fresh process. *)

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

let child ~args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = read_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status = Unix.WEXITED 0)

let run_all ~seed ~seconds ~out =
  let workloads =
    List.map
      (fun spec ->
        let sides =
          List.map
            (fun trace ->
              let args =
                [ "--workload"; spec.W.name; "--seed"; string_of_int seed; "--seconds";
                  Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--detail" ]
                @ if trace then [] else [ "--capacity" ]
              in
              let text, ok = child ~args in
              let lines = String.split_on_char '\n' (String.trim text) in
              let result = ref None in
              List.iter
                (fun l ->
                  if String.starts_with ~prefix:"{" l then result := Some (Json.of_string l)
                  else print_endline l)
                lines;
              flush stdout;
              (ok, !result))
            [ false; true ]
        in
        let results = List.filter_map snd sides in
        let total k =
          List.fold_left
            (fun acc d -> acc +. Option.value (Option.bind (Json.member k d) Json.to_num) ~default:0.0)
            0.0 results
        in
        let metrics =
          List.concat_map
            (fun d -> match Json.member "metrics" d with Some (Json.Obj kvs) -> kvs | _ -> [])
            results
        in
        let correct = List.for_all fst sides && List.length results = 2 in
        ( spec.W.name,
          correct,
          Json.Obj
            [
              ("name", Json.Str spec.W.name);
              ("correct", Json.Bool correct);
              ("attempted", Json.Num (total "attempted"));
              ("failed", Json.Num (total "failed"));
              ("metrics", Json.Obj metrics);
            ] ))
      W.specs
  in
  let doc =
    Json.Obj
      [
        ("seed", Json.Num (float seed));
        ("seconds", Json.Num seconds);
        ("workloads", Json.Arr (List.map (fun (_, _, j) -> j) workloads));
      ]
  in
  (match out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Json.to_string doc ^ "\n");
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None -> ());
  let bad = List.filter_map (fun (n, ok, _) -> if ok then None else Some n) workloads in
  if bad = [] then begin
    print_endline "crane_bench: all checks passed on every workload";
    0
  end
  else begin
    Printf.printf "crane_bench: FAILED on %s\n" (String.concat ", " bad);
    1
  end

(* ------------------------------------------------------------------ *)
(* compare A.json B.json *)

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let bounds_of benchmark =
  List.filter_map
    (fun e ->
      match (Json.member "name" e, Option.bind (Json.member "bound" e) Json.to_num) with
      | Some (Json.Str n), Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" benchmark) ~default:Json.Null))

(* Run from the root of the repository, where BENCHMARK.json lives. *)
let compare_files a_path b_path =
  let bounds = bounds_of (load "BENCHMARK.json") in
  let a = load a_path and b = load b_path in
  let num k d = Option.bind (Json.member k d) Json.to_num in
  let same_seed = num "seed" a = num "seed" b in
  let workloads d = Json.to_list (Option.value (Json.member "workloads" d) ~default:Json.Null) in
  let metrics w =
    match Json.member "metrics" w with
    | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (n, m) ->
          Option.map
            (fun v -> (n, { Verdict.value = v; spread = Option.value (num "spread" m) ~default:0.0 }))
            (num "value" m))
        kvs
    | _ -> []
  in
  let failing = ref 0 and counts = Hashtbl.create 8 in
  Printf.printf "%-16s %-28s %14s %14s %9s  %s\n" "workload" "metric" "A" "B" "change" "verdict";
  List.iter
    (fun wa ->
      let name = Option.value (Option.bind (Json.member "name" wa) Json.to_str) ~default:"?" in
      match
        List.find_opt
          (fun wb -> Option.bind (Json.member "name" wb) Json.to_str = Some name)
          (workloads b)
      with
      | None ->
        Printf.printf "%-16s missing from %s\n" name b_path;
        incr failing
      | Some wb ->
        let mb = metrics wb in
        if Json.member "correct" wb <> Some (Json.Bool true)
           || Json.member "correct" wa <> Some (Json.Bool true)
        then begin
          Printf.printf "%-16s a run failed its checks\n" name;
          incr failing
        end;
        List.iter
          (fun (mname, sa) ->
            match (Metric.find mname, List.assoc_opt mname mb) with
            | Some metric, Some sb -> (
              match Verdict.judge ~metric ~bound:(List.assoc_opt mname bounds) ~same_seed sa sb with
              | None -> ()
              | Some v ->
                if Verdict.failing v then incr failing;
                let k = Verdict.to_string v in
                Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0);
                Printf.printf "%-16s %-28s %14.4f %14.4f %+8.2f%%  %s\n" name mname sa.Verdict.value
                  sb.Verdict.value
                  (100.0 *. Verdict.change sa.Verdict.value sb.Verdict.value)
                  k)
            | _ -> ())
          (metrics wa))
    (workloads a);
  Printf.printf "verdicts:%s\n"
    (String.concat ""
       (List.map
          (fun k -> Printf.sprintf " %s=%d" k (Option.value (Hashtbl.find_opt counts k) ~default:0))
          [ "better"; "same"; "worse"; "unresolved"; "DIFFERS" ]));
  if !failing = 0 then 0 else 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let with_capacity = ref false and detail = ref false and out = ref None in
  let anon = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun w -> workload := Some w),
       "NAME one workload: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.specs));
      ("--seed", Arg.Set_int seed, "N workload generator seed (default 1)");
      ("--seconds", Arg.Set_float seconds,
       "S repeat the measured run while the next repetition fits in S seconds (default 0: once)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--capacity", Arg.Set with_capacity, " also bisect oltp's highest passing rate");
      ("--detail", Arg.Set detail,
       " result line: every measured metric, each with its sample count and spread");
      ("--out", Arg.String (fun f -> out := Some f), "FILE all-workloads mode: write results here");
    ]
  in
  let usage =
    "crane_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
     crane_bench compare A.json B.json"
  in
  Arg.parse spec (fun a -> anon := !anon @ [ a ]) usage;
  let code =
    match (!anon, !workload) with
    | [ "compare"; a; b ], None -> compare_files a b
    | [], None -> run_all ~seed:!seed ~seconds:!seconds ~out:!out
    | [], Some name -> (
      match W.find name with
      | Some spec ->
        run_one spec ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~with_capacity:!with_capacity ~detail:!detail
      | None ->
        prerr_endline ("crane_bench: unknown workload " ^ name);
        2)
    | _ ->
      prerr_endline usage;
      2
  in
  exit code
