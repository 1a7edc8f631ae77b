(* The bench row schema: the writer and reader agree, and the drift check
   gates every baseline row in its better direction. *)

module Rows = Crane_report.Rows

let file ?(seed = 42) ?(quick = true) rows = { Rows.bench = "demo"; seed; quick; rows }

let speedup app v = Rows.row app "speedup" "x" Rows.Higher v

let latency v = Rows.row "apache (4 clients)" "e2e.p50" "ns" Rows.Lower v

let errors v = Rows.row "apache (4 clients)" "span_errors" "count" Rows.Lower v

let failures ~baseline ~current =
  match Rows.drift ~baseline:(file baseline) ~current:(file current) with
  | Ok f -> List.length f
  | Error e -> Alcotest.failf "headers should match: %s" e

let test_roundtrip () =
  let t =
    file
      [ speedup "ledger" 1.0; speedup "mysql" 1.6139924; latency 1806139.;
        errors 0.; Rows.flag "apache, 95% reads" "rerun_identical" true;
        Rows.row "tiny" "ratio" "ratio" Rows.Higher (1. /. 3.);
        Rows.row "huge" "total" "ns" Rows.Lower 7.368645514e18;
        Rows.row "neg" "delta" "ns" Rows.Higher (-92467.) ]
  in
  Alcotest.(check bool) "rows survive a write and a read" true
    (Rows.of_string (Rows.to_string t) = Some t);
  let empty = file [] in
  Alcotest.(check bool) "an empty run survives too" true
    (Rows.of_string (Rows.to_string empty) = Some empty);
  Alcotest.(check bool) "a truncated file is rejected" true
    (Rows.of_string "{\"bench\": \"demo\", \"seed\": 42, \"quick\": true, \"rows\": [\n"
    = None)

let test_tolerance () =
  let check name expect ~baseline ~current =
    Alcotest.(check int) name expect (failures ~baseline ~current)
  in
  check "higher: 19% down passes" 0 ~baseline:[ speedup "a" 2.0 ] ~current:[ speedup "a" 1.62 ];
  check "higher: 21% down fails" 1 ~baseline:[ speedup "a" 2.0 ] ~current:[ speedup "a" 1.58 ];
  check "higher: any gain passes" 0 ~baseline:[ speedup "a" 2.0 ] ~current:[ speedup "a" 9.0 ];
  check "lower: 19% up passes" 0 ~baseline:[ latency 100. ] ~current:[ latency 119. ];
  check "lower: 21% up fails" 1 ~baseline:[ latency 100. ] ~current:[ latency 121. ];
  check "lower: any drop passes" 0 ~baseline:[ latency 100. ] ~current:[ latency 1. ];
  check "lower at 0 stays 0" 0 ~baseline:[ errors 0. ] ~current:[ errors 0. ];
  check "lower at 0 fails at 1" 1 ~baseline:[ errors 0. ] ~current:[ errors 1. ]

let test_missing_and_extra () =
  Alcotest.(check int) "a missing row fails" 1
    (failures ~baseline:[ speedup "a" 2.0; latency 5. ] ~current:[ speedup "a" 2.0 ]);
  Alcotest.(check int) "an extra row passes" 0
    (failures ~baseline:[ speedup "a" 2.0 ] ~current:[ speedup "a" 2.0; latency 5. ])

let test_header_mismatch () =
  let refused name ~baseline ~current =
    Alcotest.(check bool) name true
      (Result.is_error (Rows.drift ~baseline ~current))
  in
  let rows = [ speedup "a" 2.0 ] in
  refused "quick vs full is refused" ~baseline:(file ~quick:false rows)
    ~current:(file ~quick:true rows);
  refused "a different seed is refused" ~baseline:(file ~seed:1 rows)
    ~current:(file ~seed:42 rows)

(* The old gate read only the minimum speedup across apps: ledger's 1.00
   hid any fall in mysql's.  Per-row drift sees it. *)
let test_per_row_speedup () =
  let apps mysql = [ speedup "ledger" 1.00; speedup "mysql" mysql; speedup "http" 1.58 ] in
  Alcotest.(check int) "mysql 1.62 -> 1.20 fails though ledger is the minimum" 1
    (failures ~baseline:(apps 1.62) ~current:(apps 1.20))

(* ---- the committed baselines ---- *)

(* Tests run in _build/default/test; the dune deps copy every committed
   BENCH_*.json one level up. *)
let committed () =
  Sys.readdir ".." |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

module Benches = Crane_benches.Benches

(* A full-size or hand-edited baseline would otherwise surface only in
   the CI bench step; a bench without a baseline, or a stale file left by
   a removed bench, would never be drift-checked at all. *)
let test_committed_files () =
  Alcotest.(check (list string)) "one baseline per bench, and no other"
    (List.sort compare (List.map (fun (b : Benches.t) -> "BENCH_" ^ b.name ^ ".json") Benches.all))
    (committed ());
  List.iter
    (fun f ->
      match Rows.read (Filename.concat ".." f) with
      | None -> Alcotest.failf "%s does not parse" f
      | Some t ->
        Alcotest.(check string) (f ^ " names its own file") f ("BENCH_" ^ t.Rows.bench ^ ".json");
        Alcotest.(check int) (f ^ " seed") 42 t.Rows.seed;
        Alcotest.(check bool) (f ^ " quick") true t.Rows.quick)
    (committed ())

(* ---- every bench's gates, over its committed file ---- *)

let bench name = List.find (fun (b : Benches.t) -> b.name = name) Benches.all

let baseline name =
  match Rows.read (Printf.sprintf "../BENCH_%s.json" name) with
  | Some t -> t
  | None -> Alcotest.failf "BENCH_%s.json does not parse" name

(* The index and label of every gate that bench [name] fails when its
   committed file carries [rows]. *)
let failing name rows =
  let t = { (baseline name) with Rows.rows } in
  List.concat
    (List.mapi (fun i (label, ok) -> if ok then [] else [ (i, label) ]) ((bench name).gates t))

(* Row edits: a case is named by a prefix, so "apache " picks apache's
   main case whatever its run size. *)
let on case metric (r : Rows.row) = r.metric = metric && String.starts_with ~prefix:case r.case
let set case metric v rows =
  List.map (fun r -> if on case metric r then { r with Rows.value = v } else r) rows
let drop case metric rows = List.filter (fun r -> not (on case metric r)) rows

let get case metric rows =
  match List.find_opt (on case metric) rows with
  | Some r -> r.Rows.value
  | None -> Alcotest.failf "no row %s / %s" case metric

let passes name what rows =
  Alcotest.(check (list string)) (name ^ ": " ^ what) [] (List.map snd (failing name rows))

(* Each break must fail exactly one gate, the one whose label starts
   with [prefix]; and every gate of the bench must be failed by some
   break. *)
let check_breaks name breaks =
  let rows = (baseline name).Rows.rows in
  passes name "the committed rows pass every gate" rows;
  let hit = Hashtbl.create 16 in
  List.iter
    (fun (what, prefix, break) ->
      match failing name (break rows) with
      | [ (i, label) ] when String.starts_with ~prefix label -> Hashtbl.replace hit i ()
      | failed ->
        Alcotest.failf "%s, %s: expected one failed gate %S, got [%s]" name what prefix
          (String.concat "; " (List.map snd failed)))
    breaks;
  List.iteri
    (fun i (label, _) ->
      if not (Hashtbl.mem hit i) then Alcotest.failf "%s: no break fails gate %S" name label)
    ((bench name).gates (baseline name))

(* A flag row set to false, then deleted: both fail its gate. *)
let flag_breaks case metric =
  [ (case ^ " " ^ metric ^ " false", case, set case metric 0.);
    (case ^ " " ^ metric ^ " deleted", case, drop case metric) ]

let servers = [ "apache"; "mongoose"; "clamav"; "mediatomb"; "mysql" ]

let test_batching_gates () =
  passes "batching" "speedup at 2.0 passes"
    (set "batched " "speedup" 2.0 (baseline "batching").rows);
  check_breaks "batching"
    ([ ("speedup at 1.99", "batched/unbatched", set "batched " "speedup" 1.99);
       ("speedup deleted", "batched/unbatched", drop "batched " "speedup") ]
    @ List.concat_map (fun s -> flag_breaks (s ^ " equivalence (") "outputs_identical") servers)

let test_recovery_gates () =
  let big = "history 2000, compaction" and big_off = "history 2000, no compaction" in
  let rows = (baseline "recovery").rows in
  let small_peak = get "history 500, compaction" "peak_log_resident" rows in
  check_breaks "recovery"
    ([ ("peak past the flat bound", "compacted peak log",
        set big "peak_log_resident" ((2. *. small_peak) +. 257.));
       ( "smallest peak deleted", "compacted peak log",
         drop "history 500, compaction" "peak_log_resident" );
       ("uncompacted peak at the compacted", "compacted peak",
        set big_off "peak_log_resident" (get big "peak_log_resident" rows));
       ("uncompacted peak deleted", "compacted peak", drop big_off "peak_log_resident");
       ("no snapshot installed", "snapshots installed", set big "snapshots_installed" 0.);
       ("snapshots deleted", "snapshots installed", drop big "snapshots_installed");
       ("uncompacted catch-up at the compacted", "uncompacted catch-up",
        set big_off "catchup" (get big "catchup" rows));
       ("compacted catch-up deleted", "uncompacted catch-up", drop big "catchup") ]
    @ List.concat_map
        (fun h ->
          List.concat_map
            (fun c -> flag_breaks (Printf.sprintf "history %d, %s" h c) "converged")
            [ "compaction"; "no compaction" ])
        [ 500; 1000; 2000 ])

let test_latency_gates () =
  check_breaks "latency"
    (List.concat_map
       (fun s ->
         let c = s ^ " (" in
         [ ("coverage at 0.98", s ^ ": span coverage", set c "coverage" 0.98);
           ("coverage deleted", s ^ ": span coverage", drop c "coverage");
           ("one malformed DAG", s ^ ": malformed", set c "span_errors" 1.);
           ("span errors deleted", s ^ ": malformed", drop c "span_errors");
           ("fsync2x moves nothing", s ^ ": fsync2x", set c "fsync2x.delta" 0.);
           ("fsync2x delta deleted", s ^ ": fsync2x", drop c "fsync2x.delta") ])
       servers)

let test_reconfig_gates () =
  let c = "kill and replace" in
  passes "reconfig" "unavailability at 1500 ms passes"
    (set c "unavailability" 1.5e9 (baseline "reconfig").rows);
  check_breaks "reconfig"
    ([ ("one request error", "request errors", set c "errors" 1.);
       ("errors deleted", "request errors", drop c "errors");
       ("epoch 0", "membership epoch", set c "epoch" 0.);
       ("epoch deleted", "membership epoch", drop c "epoch");
       ("unavailability at 1501 ms", "unavailability", set c "unavailability" 1.501e9);
       ("unavailability deleted", "unavailability", drop c "unavailability") ]
    @ List.concat_map (flag_breaks c) [ "healed"; "spans_fault"; "rerun_identical" ])

let test_readmix_gates () =
  let fast = "fast path" and base = "all consensus" in
  passes "readmix" "offload at 2.0 passes"
    (set fast "offload_ratio" 2.0 (baseline "readmix").rows);
  check_breaks "readmix"
    ([ ("offload at 1.99", "commit-path offload", set fast "offload_ratio" 1.99);
       ("offload deleted", "commit-path offload", drop fast "offload_ratio");
       ("no lease read", "lease reads", set fast "lease_reads" 0.);
       ("lease reads deleted", "lease reads", drop fast "lease_reads");
       ("no backup read", "backup reads", set fast "backup_reads" 0.);
       ("backup reads deleted", "backup reads", drop fast "backup_reads");
       ("fast-path error", "request errors, fast path", set fast "errors" 1.);
       ("fast-path errors deleted", "request errors, fast path", drop fast "errors");
       ("consensus error", "request errors, all consensus", set base "errors" 1.);
       ("consensus errors deleted", "request errors, all consensus", drop base "errors") ]
    @ flag_breaks fast "rerun_identical")

let test_parallel_gates () =
  let apps = [ "ledger"; "mysql"; "http" ] in
  let pooled app = app ^ ", pool x" in
  check_breaks "parallel"
    ([ ( "every speedup at 1.49", "best commit->reply",
         fun rows -> List.fold_left (fun rows a -> set (pooled a) "speedup" 1.49 rows) rows apps );
       ("mysql speedup deleted", "best commit->reply", drop (pooled "mysql") "speedup");
       ("one pooled error", "request errors", set (pooled "http") "errors" 1.);
       ("one baseline error", "request errors", set "ledger, pool off" "errors" 1.);
       ("baseline errors deleted", "request errors", drop "mysql, pool off" "errors") ]
    @ List.concat_map
        (fun a -> flag_breaks (pooled a) "outputs_identical" @ flag_breaks (pooled a) "certified")
        apps)

(* ---- the paper's gates ---- *)

let paper_rows () = (baseline "paper").Rows.rows

let test_paper_gates_pass () = passes "paper" "today's quick rows pass every gate" (paper_rows ())

(* Each break moves one shape, or deletes its row, and must fail exactly
   the gate that names it. *)
let test_paper_gates_catch () =
  let rows = paper_rows () in
  let main s = s ^ " (" and ckpt s = s ^ " checkpoint" in
  let v s metric = get (main s) metric rows in
  check_breaks "paper"
    (List.concat_map
       (fun s ->
         [ (s ^ " Paxos-only at 96.9%", s ^ ": Paxos-only", set (main s) "paxos_only_pct" 96.9);
           (s ^ " Paxos-only deleted", s ^ ": Paxos-only", drop (main s) "paxos_only_pct") ])
       [ "apache"; "mongoose"; "clamav"; "mediatomb" ]
    @ List.concat_map
        (fun s ->
          [ ( s ^ " hints cut 3.9x", s ^ ": hints cut",
              set (main s) "overhead_nohints_pct" (3.9 *. v s "overhead_pct") );
            (s ^ " no-hints run deleted", s ^ ": hints cut", drop (main s) "overhead_nohints_pct") ])
        [ "apache"; "mongoose" ]
    @ [ ( "clamav below mysql", "mysql has the lowest",
          set (main "clamav") "crane_pct" (v "mysql" "crane_pct" -. 0.1) );
        ("clamav CRANE % deleted", "mysql has the lowest", drop (main "clamav") "crane_pct") ]
    @ List.concat_map
        (fun s ->
          [ (s ^ " plan I diverges", s ^ ": plan I", set (main s) "plan1_consistent" 0.);
            (s ^ " plan I deleted", s ^ ": plan I", drop (main s) "plan1_consistent");
            (s ^ " checkpoint lost", s ^ ": checkpoint+restore", drop (ckpt s) "r_fs_ms");
            ( s ^ " C_fs = C_p", s ^ ": C_fs",
              set (ckpt s) "c_fs_ms" (get (ckpt s) "c_p_ms" rows) );
            (s ^ " C_p deleted", s ^ ": C_fs", drop (ckpt s) "c_p_ms") ])
        servers
    @ List.concat_map
        (fun s ->
          [ (s ^ " plan II consistent", s ^ ": plan II", set (main s) "plan2_diverged" 0.);
            (s ^ " plan II deleted", s ^ ": plan II", drop (main s) "plan2_diverged") ])
        [ "clamav"; "mysql" ])

let suite =
  [ ( "bench rows",
      [ Alcotest.test_case "writer/reader roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "drift tolerance both directions" `Quick test_tolerance;
        Alcotest.test_case "missing and extra rows" `Quick test_missing_and_extra;
        Alcotest.test_case "header mismatch refused" `Quick test_header_mismatch;
        Alcotest.test_case "per-row speedup drift" `Quick test_per_row_speedup;
        Alcotest.test_case "committed baselines are quick seed 42" `Quick test_committed_files;
        Alcotest.test_case "paper gates pass today" `Quick test_paper_gates_pass;
        Alcotest.test_case "paper gates catch each shape" `Quick test_paper_gates_catch;
        Alcotest.test_case "batching gates catch each break" `Quick test_batching_gates;
        Alcotest.test_case "recovery gates catch each break" `Quick test_recovery_gates;
        Alcotest.test_case "latency gates catch each break" `Quick test_latency_gates;
        Alcotest.test_case "reconfig gates catch each break" `Quick test_reconfig_gates;
        Alcotest.test_case "readmix gates catch each break" `Quick test_readmix_gates;
        Alcotest.test_case "parallel gates catch each break" `Quick test_parallel_gates ] ) ]
