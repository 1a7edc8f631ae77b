(* Unit checks of the benchmark's own rules: the percentile sample-count
   rule, bisection, schedules, quartiles, the compare verdicts, JSON
   round trips, and the agreement of the metric catalog with
   BENCHMARK.json. *)

open Crane_perf

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* p99 needs ten samples beyond it: 1000 samples, not 999. *)
let () =
  check "p99 supported at 1000" (Measure.supported ~n:1000 0.99);
  check "p99 unsupported at 999" (not (Measure.supported ~n:999 0.99));
  check "p50 supported at 20" (Measure.supported ~n:20 0.5);
  check "p50 unsupported at 19" (not (Measure.supported ~n:19 0.5));
  check "nothing supported at 0" (not (Measure.supported ~n:0 0.5));
  let a = Array.init 1000 (fun i -> float (i + 1)) in
  check "p99 of 1..1000 is 990" (Measure.percentile a 0.99 = 990.0);
  check "ten samples beyond p99" (Measure.beyond ~n:1000 0.99 = 10);
  check "p50 of 1..1000 is 500" (Measure.percentile a 0.5 = 500.0)

(* Quartiles match Python's statistics.quantiles(n=4). *)
let () =
  let q1, q2, q3 = Measure.quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  check "quartiles of 1..10" (q1 = 2.75 && q2 = 5.5 && q3 = 8.25);
  check "spread of constants is 0" (Measure.spread [ 3.0; 3.0; 3.0 ] = 0.0)

(* Bisection: deterministic, exactly [probes] probes, and within one
   step of a threshold. *)
let () =
  let probes = ref [] in
  let pass threshold r =
    probes := r :: !probes;
    r <= threshold
  in
  let run threshold =
    probes := [];
    let best = Measure.bisect ~lo:500.0 ~hi:16000.0 ~probes:6 (pass threshold) in
    (best, List.rev !probes)
  in
  let b1, p1 = run 4321.0 and b2, p2 = run 4321.0 in
  check "bisect deterministic" (b1 = b2 && p1 = p2);
  check "bisect probes six times" (List.length p1 = 6);
  check "bisect first probe is the geometric middle" (List.hd p1 = Float.round (sqrt (500.0 *. 16000.0)));
  check "bisect probes whole rates" (List.for_all Float.is_integer p1);
  (match b1 with
  | Some best ->
    let step = (16000.0 /. 500.0) ** (1.0 /. 64.0) in
    check "bisect within one step below threshold" (best <= 4321.0 && best *. step *. 1.01 >= 4321.0)
  | None -> check "bisect found a passing rate" false);
  let none, _ = run 100.0 in
  check "bisect below range" (none = None)

(* Schedules: a pure function of --seed; nothing else feeds them. *)
let () =
  let s1 = Gen.oltp ~seed:1 ~rate:2000.0 ~write_pct:20 5000 in
  (* Draws from another generator (the cluster's, say) in between must
     not matter: schedules own their stream. *)
  let other = Crane_sim.Rng.create 42 in
  for _ = 1 to 1000 do
    ignore (Crane_sim.Rng.next other)
  done;
  let s1' = Gen.oltp ~seed:1 ~rate:2000.0 ~write_pct:20 5000 in
  let s2 = Gen.oltp ~seed:2 ~rate:2000.0 ~write_pct:20 5000 in
  check "schedule reproducible" (s1 = s1');
  check "schedule depends on seed" (s1 <> s2);
  let writes = Array.fold_left (fun n a -> if Gen.is_write a.Gen.op then n + 1 else n) 0 s1 in
  check "exact write count" (writes = 1000);
  let last = float s1.(4999).Gen.due /. 1e9 in
  check "mean rate within 5%" (Float.abs ((4999.0 /. last) -. 2000.0) < 100.0);
  let sorted = ref true in
  Array.iteri (fun i a -> if i > 0 && a.Gen.due < s1.(i - 1).Gen.due then sorted := false) s1;
  check "dues ascending" !sorted;
  let r = Gen.readmix ~seed:3 ~rate:20000.0 ~write_pct:5 20000 in
  let puts = Array.fold_left (fun n a -> if a.Gen.op = Gen.Put then n + 1 else n) 0 r in
  let leases =
    Array.fold_left (fun n a -> if a.Gen.op = Gen.Get { lease = true } then n + 1 else n) 0 r
  in
  check "readmix writes" (puts = 1000);
  check "readmix lease share" (leases = 19000 / Gen.lease_every);
  let w1 = Gen.puts ~seed:1 ~stream:"ledger-write" ~rate:10.0 100 in
  let w2 = Gen.puts ~seed:1 ~stream:"failover" ~rate:10.0 100 in
  check "workloads own their streams" (w1 <> w2)

(* Verdicts. *)
let () =
  let host = { Metric.name = "host_s"; unit_ = "s"; better = Metric.Lower; kind = Metric.Host } in
  let virt = { host with Metric.name = "lat_p50_ms"; kind = Metric.Virtual } in
  let side value spread = { Verdict.value; spread } in
  let j ?(same_seed = true) m bound a b = Verdict.judge ~metric:m ~bound ~same_seed a b in
  check "host within bound" (j host (Some 0.1) (side 1.0 0.01) (side 1.05 0.01) = Some Verdict.Same);
  check "host worse" (j host (Some 0.1) (side 1.0 0.01) (side 1.2 0.01) = Some Verdict.Worse);
  check "host better" (j host (Some 0.1) (side 1.0 0.01) (side 0.8 0.01) = Some Verdict.Better);
  check "host unresolved" (j host (Some 0.1) (side 1.0 0.2) (side 1.2 0.01) = Some Verdict.Unresolved);
  check "host unbounded" (j host None (side 1.0 0.0) (side 2.0 0.0) = None);
  check "virtual identical" (j virt (Some 0.05) (side 2.0 0.0) (side 2.0 0.0) = Some Verdict.Same);
  check "virtual differs" (j virt (Some 0.05) (side 2.0 0.0) (side 2.01 0.0) = Some Verdict.Differs);
  check "virtual across seeds"
    (j ~same_seed:false virt (Some 0.05) (side 2.0 0.0) (side 2.01 0.0) = Some Verdict.Same);
  let hi = { host with Metric.better = Metric.Higher; kind = Metric.Virtual } in
  check "higher is better"
    (j ~same_seed:false hi (Some 0.05) (side 100.0 0.0) (side 120.0 0.0) = Some Verdict.Better)

(* JSON: what is written reads back the same. *)
let () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"q\" \\ b\n\001");
        ("n", Json.Arr [ Json.Num 0.1; Json.Num 42.0; Json.Num (-1.5e-7); Json.Null ]);
        ("b", Json.Bool false);
        ("o", Json.Obj []);
      ]
  in
  check "json round trip" (Json.of_string (Json.to_string doc) = doc);
  check "json rejects trailing data"
    (match Json.of_string "{} x" with _ -> false | exception Json.Parse_error _ -> true)

(* The catalog is BENCHMARK.json's metric list. *)
let () =
  let path = "../../BENCHMARK.json" in
  let ic = open_in_bin path in
  let doc = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let listed key =
    List.map
      (fun e ->
        let s k = Option.bind (Json.member k e) Json.to_str in
        (s "name", s "unit", Option.bind (s "better") Metric.better_of_string))
      (Json.to_list (Option.value (Json.member key doc) ~default:Json.Null))
  in
  let ours l =
    List.map (fun (m : Metric.t) -> (Some m.Metric.name, Some m.Metric.unit_, Some m.Metric.better)) l
  in
  check "end_to_end matches BENCHMARK.json" (listed "end_to_end" = ours Metric.end_to_end);
  check "per_layer matches BENCHMARK.json" (listed "per_layer" = ours Metric.per_layer)

let () =
  if !failures > 0 then exit 1;
  print_endline "test_perf: all checks passed"
