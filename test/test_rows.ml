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

(* A full-size or hand-edited baseline would otherwise surface only in
   the CI bench step. *)
let test_committed_files () =
  Alcotest.(check bool) "baselines found" true (List.length (committed ()) >= 7);
  List.iter
    (fun f ->
      match Rows.read (Filename.concat ".." f) with
      | None -> Alcotest.failf "%s does not parse" f
      | Some t ->
        Alcotest.(check string) (f ^ " names its own file") f ("BENCH_" ^ t.Rows.bench ^ ".json");
        Alcotest.(check int) (f ^ " seed") 42 t.Rows.seed;
        Alcotest.(check bool) (f ^ " quick") true t.Rows.quick)
    (committed ())

(* ---- the paper's gates ---- *)

module Paper = Crane_workload.Paper

let paper_rows () =
  match Rows.read "../BENCH_paper.json" with
  | Some t -> t.Rows.rows
  | None -> Alcotest.fail "BENCH_paper.json does not parse"

let on server metric (r : Rows.row) =
  r.metric = metric && String.starts_with ~prefix:(server ^ " ") r.case

let set server metric v rows =
  List.map (fun r -> if on server metric r then { r with Rows.value = v } else r) rows

let failing rows = List.filter_map (fun (l, ok) -> if ok then None else Some l) (Paper.gates rows)

let test_paper_gates_pass () =
  Alcotest.(check (list string)) "today's quick rows pass every gate" [] (failing (paper_rows ()))

(* Each break moves one shape and must fail exactly the gate that names
   it. *)
let test_paper_gates_catch () =
  let rows = paper_rows () in
  let v = Paper.find rows in
  let breaks name prefix broken =
    match failing broken with
    | [ label ] when String.starts_with ~prefix label -> ()
    | labels -> Alcotest.failf "%s: expected one failed gate %S, got [%s]" name prefix
                  (String.concat "; " labels)
  in
  List.iter
    (fun s ->
      breaks (s ^ " Paxos-only at 96.9%") (s ^ ": Paxos-only") (set s "paxos_only_pct" 96.9 rows))
    [ "apache"; "mongoose"; "clamav"; "mediatomb" ];
  List.iter
    (fun s ->
      breaks (s ^ " hints cut 3.9x") (s ^ ": hints cut")
        (set s "overhead_nohints_pct" (3.9 *. v s "overhead_pct") rows))
    [ "apache"; "mongoose" ];
  breaks "clamav below mysql" "mysql has the lowest"
    (set "clamav" "crane_pct" (v "mysql" "crane_pct" -. 0.1) rows);
  List.iter
    (fun s ->
      breaks (s ^ " plan I diverges") (s ^ ": plan I") (set s "plan1_consistent" 0. rows);
      breaks (s ^ " checkpoint lost") (s ^ ": checkpoint+restore")
        (List.filter (fun r -> not (on s "r_fs_ms" r)) rows);
      breaks (s ^ " C_fs = C_p") (s ^ ": C_fs") (set s "c_fs_ms" (v s "c_p_ms") rows))
    [ "apache"; "mongoose"; "clamav"; "mediatomb"; "mysql" ];
  List.iter
    (fun s -> breaks (s ^ " plan II consistent") (s ^ ": plan II") (set s "plan2_diverged" 0. rows))
    [ "clamav"; "mysql" ]

let suite =
  [ ( "bench rows",
      [ Alcotest.test_case "writer/reader roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "drift tolerance both directions" `Quick test_tolerance;
        Alcotest.test_case "missing and extra rows" `Quick test_missing_and_extra;
        Alcotest.test_case "header mismatch refused" `Quick test_header_mismatch;
        Alcotest.test_case "per-row speedup drift" `Quick test_per_row_speedup;
        Alcotest.test_case "committed baselines are quick seed 42" `Quick test_committed_files;
        Alcotest.test_case "paper gates pass today" `Quick test_paper_gates_pass;
        Alcotest.test_case "paper gates catch each shape" `Quick test_paper_gates_catch ] ) ]
