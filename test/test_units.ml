(* Unit tests for the small pure modules: consensus-event codec, the
   PAXOS sequence, output logs, the HTTP codec, the SQL kit, and the
   statistics helpers. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Event = Crane_core.Event
module Paxos_seq = Crane_core.Paxos_seq
module Output_log = Crane_core.Output_log
module Httpkit = Crane_apps.Httpkit
module Sqlkit = Crane_apps.Sqlkit
module Stats = Crane_report.Stats

(* ------------------------------------------------------------------ *)
(* Event codec *)

(* Fields anywhere in the non-negative int range (the varint edges
   included) and binary payloads: empty, with newlines, or led by Paxos's
   config tag. *)
let arbitrary_event =
  let open QCheck.Gen in
  let field = frequency [ (3, small_nat); (3, pint); (1, oneofl [ 0; 127; 128; max_int ]) ] in
  let payload =
    frequency
      [ (1, return "");
        (4, string_size ~gen:char (0 -- 300));
        (1, map (fun s -> "CRANE-CFG:" ^ s) (string ~gen:char));
        (1, map (fun s -> s ^ "\n" ^ s) (string ~gen:printable)) ]
  in
  QCheck.make
    ~print:(fun ev ->
      Format.asprintf "%a" Event.pp ev
      ^ match ev with Event.Send { payload; _ } -> " " ^ String.escaped payload | _ -> "")
    (oneof
       [ map2 (fun conn port -> Event.Connect { conn; port }) field field;
         map2 (fun conn payload -> Event.Send { conn; payload }) field payload;
         map (fun conn -> Event.Close { conn }) field;
         map (fun nclock -> Event.Time_bubble { nclock }) field ])

let prop_event_roundtrip =
  QCheck.Test.make ~name:"event encode/decode roundtrip" ~count:300
    arbitrary_event
    (fun ev -> Event.decode (Event.encode ev) = ev)

let malformed s =
  match Event.decode s with _ -> false | exception Crane_storage.Codec.Malformed -> true

let prop_event_length_checked =
  QCheck.Test.make ~name:"event decode rejects strict prefixes and trailing bytes"
    ~count:300 arbitrary_event (fun ev ->
      let s = Event.encode ev in
      List.for_all (fun n -> malformed (String.sub s 0 n)) (List.init (String.length s) Fun.id)
      && malformed (s ^ "\000"))

let prop_event_not_config =
  QCheck.Test.make ~name:"no event encodes as a config value" ~count:300 arbitrary_event
    (fun ev -> not (Crane_paxos.Paxos.is_config_value (Event.encode ev)))

(* Negative fields are refused at encode time; unknown tags and varints
   past 63 bits at decode time. *)
let test_event_codec_rejects () =
  List.iter
    (fun ev ->
      Alcotest.check_raises "negative field" (Invalid_argument "Codec.add_uint: negative")
        (fun () -> ignore (Event.encode ev)))
    [ Event.Connect { conn = 1; port = -1 }; Event.Send { conn = -1; payload = "" };
      Event.Close { conn = min_int }; Event.Time_bubble { nclock = -5 } ];
  List.iter
    (fun s -> Alcotest.(check bool) (String.escaped s) true (malformed s))
    [ ""; "\004"; "\255\001"; "\003" ^ String.make 9 '\255' ^ "\001";
      "\003" ^ String.make 8 '\255' ^ "\064" ]

let test_event_is_bubble () =
  Alcotest.(check bool) "bubble" true (Event.is_bubble (Event.Time_bubble { nclock = 3 }));
  Alcotest.(check bool) "call" false (Event.is_bubble (Event.Close { conn = 1 }))

(* ------------------------------------------------------------------ *)
(* Paxos_seq *)

let test_seq_fifo () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  Paxos_seq.append seq (Event.Connect { conn = 1; port = 80 });
  Paxos_seq.append seq (Event.Send { conn = 1; payload = "x" });
  Alcotest.(check bool) "nonempty" false (Paxos_seq.is_empty seq);
  Alcotest.(check int) "queued calls" 2 (Paxos_seq.queued_calls seq);
  (match Paxos_seq.head seq with
  | Some (Event.Connect { conn = 1; _ }) -> ()
  | _ -> Alcotest.fail "head should be the connect");
  Paxos_seq.drop_head seq;
  (match Paxos_seq.head seq with
  | Some (Event.Send { conn = 1; _ }) -> ()
  | _ -> Alcotest.fail "then the send");
  Paxos_seq.drop_head seq;
  Alcotest.(check bool) "drained" true (Paxos_seq.is_empty seq);
  Alcotest.(check int) "no queued calls left" 0 (Paxos_seq.queued_calls seq)

let test_seq_bubble_drain () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  Paxos_seq.append seq (Event.Time_bubble { nclock = 5 });
  Paxos_seq.append seq (Event.Close { conn = 9 });
  for _ = 1 to 4 do
    Paxos_seq.drain_bubble_upto seq 1
  done;
  (match Paxos_seq.head seq with
  | Some (Event.Time_bubble { nclock = 1 }) -> ()
  | _ -> Alcotest.fail "one clock left");
  Paxos_seq.drain_bubble_upto seq 1;
  (match Paxos_seq.head seq with
  | Some (Event.Close { conn = 9 }) -> ()
  | _ -> Alcotest.fail "bubble exhausted, close surfaces");
  Alcotest.(check int) "bubble stat" 1 (Paxos_seq.bubbles seq);
  Alcotest.(check int) "call stat" 1 (Paxos_seq.calls seq)

let test_seq_drain_upto () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  Paxos_seq.append seq (Event.Time_bubble { nclock = 10 });
  Paxos_seq.drain_bubble_upto seq 3;
  (match Paxos_seq.head seq with
  | Some (Event.Time_bubble { nclock = 7 }) -> ()
  | _ -> Alcotest.fail "7 left");
  Paxos_seq.drain_bubble_upto seq 100;
  Alcotest.(check bool) "over-drain clamps to empty" true (Paxos_seq.is_empty seq)

(* max_depth is attributed per view: a view change resets the high-water
   mark to the current depth, so a report never shows a stale peak from a
   previous primary's burst regime — but the mark must survive drains
   within a view and re-grow after the reset. *)
let test_seq_max_depth_per_view () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  for i = 1 to 5 do
    Paxos_seq.append seq ~index:i ~view:0 (Event.Send { conn = 1; payload = "x" })
  done;
  Alcotest.(check int) "peak under view 0" 5 (Paxos_seq.max_depth seq);
  Alcotest.(check int) "attributed to view 0" 0 (Paxos_seq.max_depth_view seq);
  for _ = 1 to 4 do
    Paxos_seq.drop_head seq
  done;
  Alcotest.(check int) "drain keeps the in-view peak" 5 (Paxos_seq.max_depth seq);
  (* view change: the first append under view 2 resets the mark to the
     depth at that instant (1 leftover + the new entry = 2), not 5 *)
  Paxos_seq.append seq ~index:6 ~view:2 (Event.Send { conn = 1; payload = "y" });
  Alcotest.(check int) "view change resets the peak" 2 (Paxos_seq.max_depth seq);
  Alcotest.(check int) "attributed to view 2" 2 (Paxos_seq.max_depth_view seq);
  Paxos_seq.append seq ~index:7 ~view:2 (Event.Send { conn = 1; payload = "z" });
  Alcotest.(check int) "re-grows within the new view" 3 (Paxos_seq.max_depth seq);
  (* a stale append tagged with an older view must not resurrect it *)
  Paxos_seq.drop_head seq;
  Paxos_seq.append seq ~index:8 ~view:1 (Event.Send { conn = 1; payload = "w" });
  Alcotest.(check int) "older-view append does not reset" 3 (Paxos_seq.max_depth seq);
  Alcotest.(check int) "attribution unchanged" 2 (Paxos_seq.max_depth_view seq)

let test_seq_empty_for () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  Engine.at eng (Time.ms 5) (fun () ->
      Alcotest.(check int) "empty since creation" (Time.ms 5)
        (Paxos_seq.empty_for seq);
      Paxos_seq.append seq (Event.Close { conn = 1 }));
  Engine.at eng (Time.ms 8) (fun () ->
      Alcotest.(check int) "not empty now" 0 (Paxos_seq.empty_for seq));
  Engine.run eng

(* Gates park on the sequence: an append wakes every parked fiber at
   once, whether its park is timed or not, and a timed park that expires
   leaves no waker behind. *)
let test_seq_park () =
  let eng = Engine.create () in
  let seq = Paxos_seq.create eng in
  let woke = ref [] in
  let parker name ?timeout () =
    Engine.spawn eng ~name (fun () ->
        Paxos_seq.park ?timeout seq;
        woke := (name, Engine.now eng) :: !woke)
  in
  parker "untimed" ();
  parker "timed" ~timeout:(Time.us 100) ();
  Engine.at eng (Time.us 50) (fun () -> Paxos_seq.append seq (Event.Close { conn = 1 }));
  parker "expires" ~timeout:(Time.us 10) ();
  Engine.run eng;
  Alcotest.(check (list (pair string int))) "woken by the append or the timeout"
    [ ("expires", Time.us 10); ("untimed", Time.us 50); ("timed", Time.us 50) ]
    (List.rev !woke);
  Alcotest.(check int) "no waker left" 0 (List.length seq.Paxos_seq.waiters)

(* ------------------------------------------------------------------ *)
(* Output_log *)

let test_output_log_equal_and_normalize () =
  let a = Output_log.create () and b = Output_log.create () in
  Output_log.record a ~conn:1 "HTTP/1.0 200 OK\nDate: 12:00:01\nbody";
  Output_log.record b ~conn:1 "HTTP/1.0 200 OK\nDate: 99:99:99\nbody";
  Alcotest.(check bool) "timestamps stripped" true (Output_log.equal a b);
  Alcotest.(check bool) "kept with strip_times off" false
    (Output_log.equal ~strip_times:false a b);
  Output_log.record a ~conn:2 "x";
  Alcotest.(check bool) "extra entry differs" false (Output_log.equal a b);
  Alcotest.(check (option int)) "divergence index" (Some 1)
    (Output_log.first_divergence a b)

(* Against the line filter it shortcuts: a timed line anywhere (first,
   middle, last) is dropped, and a payload without one comes back as the
   very same string. *)
let test_output_log_normalize_cases () =
  let reference p =
    String.split_on_char '\n' p
    |> List.filter (fun l ->
           not (String.starts_with ~prefix:"Date:" l || String.starts_with ~prefix:"X-Time:" l))
    |> String.concat "\n"
  in
  List.iter
    (fun p ->
      let got = Output_log.normalize_payload p in
      Alcotest.(check string) (String.escaped p) (reference p) got;
      if reference p = p && got != p then
        Alcotest.failf "%S copied although nothing was stripped" p)
    [ ""; "\n"; "OK 1\n"; "row id=3 c=5\n"; "Date: x"; "Date:"; "Dat"; "a\nDate: 1\nb";
      "a\nX-Time: 2"; "X-Time: 1\n\nDate: 2\n"; " Date: not at line start"; "a\nDate:\n" ]

let test_output_log_order_matters () =
  let a = Output_log.create () and b = Output_log.create () in
  Output_log.record a ~conn:1 "one";
  Output_log.record a ~conn:2 "two";
  Output_log.record b ~conn:2 "two";
  Output_log.record b ~conn:1 "one";
  Alcotest.(check bool) "send order is part of the log" false (Output_log.equal a b)

(* ------------------------------------------------------------------ *)
(* Httpkit *)

let test_http_roundtrip () =
  let raw = Httpkit.request ~body:"hello" "PUT" "/a.php" in
  match Httpkit.parse_request raw with
  | Some req ->
    Alcotest.(check string) "method" "PUT" req.Httpkit.meth;
    Alcotest.(check string) "path" "/a.php" req.Httpkit.path;
    Alcotest.(check string) "body" "hello" req.Httpkit.body
  | None -> Alcotest.fail "request did not parse"

let test_http_fragmented_completeness () =
  let raw = Httpkit.request ~body:"0123456789" "PUT" "/x" in
  (* No prefix shorter than the whole request may parse as complete. *)
  for cut = 1 to String.length raw - 1 do
    if Httpkit.is_complete (String.sub raw 0 cut) then
      Alcotest.failf "prefix of %d bytes wrongly complete" cut
  done;
  Alcotest.(check bool) "full request complete" true (Httpkit.is_complete raw)

let test_http_response_status () =
  let resp = Httpkit.response ~now:"t" ~status:404 "nope" in
  Alcotest.(check (option int)) "status extracted" (Some 404)
    (Httpkit.status_of_response resp)

let prop_http_roundtrip =
  QCheck.Test.make ~name:"http request roundtrip" ~count:200
    QCheck.(pair small_printable_string small_printable_string)
    (fun (path, body) ->
      QCheck.assume (path <> "" && not (String.contains path ' '));
      QCheck.assume (not (String.contains path '\r'));
      QCheck.assume (not (String.contains path '\n'));
      let raw = Httpkit.request ~body "GET" ("/" ^ path) in
      match Httpkit.parse_request raw with
      | Some req -> req.Httpkit.path = "/" ^ path && req.Httpkit.body = body
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Sqlkit *)

let test_sql_parse () =
  (match Sqlkit.parse_stmt "SELECT c FROM sbtest3 WHERE id=17" with
  | Some (Sqlkit.Select { tbl = "sbtest3"; id = 17 }) -> ()
  | _ -> Alcotest.fail "select did not parse");
  (match Sqlkit.parse_stmt "UPDATE t SET c=5 WHERE id=2" with
  | Some (Sqlkit.Update { tbl = "t"; id = 2; value = 5 }) -> ()
  | _ -> Alcotest.fail "update did not parse");
  Alcotest.(check bool) "garbage rejected" true
    (Sqlkit.parse_stmt "DROP TABLE students" = None)

let test_sql_roundtrip () =
  let db = Sqlkit.create_db () in
  let t = Sqlkit.create_table db "a" 10 in
  Sqlkit.update t ~id:3 ~value:999;
  (* The blob's exact bytes: checkpoints and snapshots carry them. *)
  let b = Sqlkit.create_table db "B" 2 in
  Sqlkit.update b ~id:2 ~value:(-5);
  ignore (Sqlkit.create_table db "" 0);
  Alcotest.(check string) "blob layout"
    ":;B:1=37,2=-5;a:1=37,2=74,3=999,4=148,5=185,6=222,7=259,8=296,9=333,10=370"
    (Sqlkit.serialize db);
  let db' = Sqlkit.deserialize (Sqlkit.serialize db) in
  match Sqlkit.table db' "a" with
  | Some t' ->
    Alcotest.(check int) "rows survive" 10 (Sqlkit.row_count t');
    Alcotest.(check (option int)) "update survives" (Some 999) (Sqlkit.select t' ~id:3)
  | None -> Alcotest.fail "table lost"

let prop_sql_serialize_roundtrip =
  QCheck.Test.make ~name:"sqlkit serialize/deserialize roundtrip" ~count:100
    QCheck.(small_list (pair (int_range 1 50) (int_range 0 1000)))
    (fun updates ->
      let db = Sqlkit.create_db () in
      let t = Sqlkit.create_table db "t1" 50 in
      List.iter (fun (id, v) -> Sqlkit.update t ~id ~value:v) updates;
      Sqlkit.serialize (Sqlkit.deserialize (Sqlkit.serialize db))
      = Sqlkit.serialize db)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_median () =
  Alcotest.(check int) "odd" 3 (Stats.median [ 5; 1; 3; 2; 4 ]);
  Alcotest.(check int) "empty" 0 (Stats.median []);
  Alcotest.(check int) "p0 is min" 1 (Stats.percentile 0.0 [ 3; 1; 2 ]);
  Alcotest.(check int) "p100 is max" 3 (Stats.percentile 1.0 [ 3; 1; 2 ])

let prop_stats_median_bounds =
  QCheck.Test.make ~name:"median lies within sample bounds" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) small_nat)
    (fun samples ->
      let m = Stats.median samples in
      let lo, hi = Stats.min_max samples in
      lo <= m && m <= hi)

let test_stats_normalized () =
  Alcotest.(check (float 0.01)) "equal is 100%" 100.0
    (Stats.normalized_pct ~baseline:50 ~system:50);
  Alcotest.(check (float 0.01)) "2x slower is 50%" 50.0
    (Stats.normalized_pct ~baseline:50 ~system:100);
  Alcotest.(check (float 0.01)) "overhead pct" 100.0
    (Stats.overhead_pct ~baseline:50 ~system:100)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "units.event",
      [
        qcheck prop_event_roundtrip;
        qcheck prop_event_length_checked;
        qcheck prop_event_not_config;
        Alcotest.test_case "codec rejects" `Quick test_event_codec_rejects;
        Alcotest.test_case "is_bubble" `Quick test_event_is_bubble;
      ] );
    ( "units.paxos_seq",
      [
        Alcotest.test_case "fifo" `Quick test_seq_fifo;
        Alcotest.test_case "bubble drain" `Quick test_seq_bubble_drain;
        Alcotest.test_case "drain upto clamps" `Quick test_seq_drain_upto;
        Alcotest.test_case "max_depth per view" `Quick test_seq_max_depth_per_view;
        Alcotest.test_case "empty_for" `Quick test_seq_empty_for;
        Alcotest.test_case "park wakes on append" `Quick test_seq_park;
      ] );
    ( "units.output_log",
      [
        Alcotest.test_case "normalize + equal" `Quick test_output_log_equal_and_normalize;
        Alcotest.test_case "normalize strips only timed lines" `Quick
          test_output_log_normalize_cases;
        Alcotest.test_case "order matters" `Quick test_output_log_order_matters;
      ] );
    ( "units.httpkit",
      [
        Alcotest.test_case "roundtrip" `Quick test_http_roundtrip;
        Alcotest.test_case "fragmented completeness" `Quick
          test_http_fragmented_completeness;
        Alcotest.test_case "response status" `Quick test_http_response_status;
        qcheck prop_http_roundtrip;
      ] );
    ( "units.sqlkit",
      [
        Alcotest.test_case "parse" `Quick test_sql_parse;
        Alcotest.test_case "roundtrip" `Quick test_sql_roundtrip;
        qcheck prop_sql_serialize_roundtrip;
      ] );
    ( "units.stats",
      [
        Alcotest.test_case "median/percentile" `Quick test_stats_median;
        qcheck prop_stats_median_bounds;
        Alcotest.test_case "normalization" `Quick test_stats_normalized;
      ] );
  ]
