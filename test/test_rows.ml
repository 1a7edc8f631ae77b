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

let suite =
  [ ( "bench rows",
      [ Alcotest.test_case "writer/reader roundtrip" `Quick test_roundtrip;
        Alcotest.test_case "drift tolerance both directions" `Quick test_tolerance;
        Alcotest.test_case "missing and extra rows" `Quick test_missing_and_extra;
        Alcotest.test_case "header mismatch refused" `Quick test_header_mismatch;
        Alcotest.test_case "per-row speedup drift" `Quick test_per_row_speedup ] ) ]
