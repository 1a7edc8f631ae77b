(* Tests for Crane-San: the happens-before race engine, the lock-order
   lint, and the determinism certifier.

   The seeded-race target covers the end-to-end path (instrumented
   runtimes -> trace -> monitor).  The primitive-level tests drive
   Pthread/DMT sync objects directly and emit memory events by hand
   around raw shared state, checking that each primitive contributes the
   happens-before edges the monitor relies on. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace
module Pthread = Crane_pthread.Pthread
module Dmt = Crane_dmt.Dmt
module Hb = Crane_analysis.Hb
module Driver = Crane_analysis.Driver
module Standalone = Crane_core.Standalone

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* A monitored engine: trace recorder (no retained buffer) with the HB
   monitor attached as a streaming sink. *)
let monitored () =
  let eng = Engine.create () in
  let tr = Trace.create ~retain:false () in
  Engine.set_trace eng tr;
  let mon = Hb.create () in
  Hb.attach mon tr;
  (eng, mon)

(* Hand-emitted memory access, standing in for the R.cell wrappers when
   a test drives the runtime primitives directly. *)
let mem eng ~write ~loc ~site = Engine.emit eng (Trace.Mem { write; loc; site })

let races_on (r : Hb.report) site =
  List.filter (fun (x : Hb.race) -> x.Hb.r_site = site) r.Hb.races

(* ------------------------------------------------------------------ *)
(* End-to-end: the seeded race *)

let test_race_true_positive () =
  let r = Driver.run_one ~seed:1 ~mode:Standalone.Native Driver.racy_spec in
  Alcotest.(check bool) "seeded race detected" true (races_on r "racy.count" <> []);
  let kinds = List.map (fun (x : Hb.race) -> x.Hb.r_kind) (races_on r "racy.count") in
  Alcotest.(check bool) "a write-write race is among them" true
    (List.mem "write-write" kinds)

let test_no_false_positive_on_locked_counter () =
  let r = Driver.run_one ~seed:1 ~mode:Standalone.Native Driver.racy_spec in
  Alcotest.(check int) "mutex-protected counter never flagged" 0
    (List.length (races_on r "racy.safe_count"))

let test_dmt_serializes_the_race_away () =
  let r = Driver.run_one ~seed:1 ~mode:Standalone.Parrot Driver.racy_spec in
  Alcotest.(check int) "no races under DMT" 0 (List.length r.Hb.races)

let test_certifier () =
  let outcomes = Driver.analyze ~seed:3 ~targets:[ "racy-counter" ] () in
  let get m = List.find (fun o -> o.Driver.o_mode = m) outcomes in
  let native = get "native" and parrot = get "parrot" in
  Alcotest.(check bool) "native replay identical" true native.Driver.o_replay_ok;
  Alcotest.(check bool) "parrot replay identical" true parrot.Driver.o_replay_ok;
  Alcotest.(check bool) "parrot certified deterministic" true parrot.Driver.o_certified;
  Alcotest.(check bool) "native diverges across seeds" false native.Driver.o_certified;
  Alcotest.(check (list string)) "no new findings" [] (Driver.problems outcomes)

let test_report_byte_identical () =
  let render () =
    Driver.render ~seed:4 (Driver.analyze ~seed:4 ~targets:[ "racy-counter" ] ())
  in
  Alcotest.(check string) "same seed, same bytes" (render ()) (render ())

(* ------------------------------------------------------------------ *)
(* Lock-order lint *)

let test_lock_inversion_cycle () =
  let eng, mon = monitored () in
  let rt = Pthread.create eng (Rng.create 11) in
  let a = Pthread.Mutex.create ~name:"A" rt in
  let b = Pthread.Mutex.create ~name:"B" rt in
  (* Opposite acquisition orders, separated in virtual time so the run
     itself cannot deadlock — the lint is about order, not overlap. *)
  Engine.spawn eng ~name:"fwd" (fun () ->
      Pthread.Mutex.lock a;
      Pthread.Mutex.lock b;
      Pthread.Mutex.unlock b;
      Pthread.Mutex.unlock a);
  Engine.spawn eng ~name:"rev" (fun () ->
      Engine.sleep eng (Time.ms 1);
      Pthread.Mutex.lock b;
      Pthread.Mutex.lock a;
      Pthread.Mutex.unlock a;
      Pthread.Mutex.unlock b);
  Engine.run eng;
  check_no_failures eng;
  let r = Hb.report mon in
  Alcotest.(check int) "one cycle" 1 (List.length r.Hb.inversions);
  let inv = List.hd r.Hb.inversions in
  Alcotest.(check (list string)) "cycle is {A, B}" [ "A"; "B" ] inv.Hb.i_locks

let test_no_inversion_with_consistent_order () =
  let eng, mon = monitored () in
  let rt = Pthread.create eng (Rng.create 12) in
  let a = Pthread.Mutex.create ~name:"A" rt in
  let b = Pthread.Mutex.create ~name:"B" rt in
  for i = 1 to 2 do
    Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
        for _ = 1 to 3 do
          Pthread.Mutex.lock a;
          Pthread.Mutex.lock b;
          Engine.sleep eng (Time.us 5);
          Pthread.Mutex.unlock b;
          Pthread.Mutex.unlock a
        done)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "no cycle" 0 (List.length (Hb.report mon).Hb.inversions)

(* ------------------------------------------------------------------ *)
(* HB edges per primitive: a producer writes unprotected state, then
   synchronizes; a consumer synchronizes, then reads.  Only the
   primitive's edge orders the accesses — if the monitor missed it,
   these would be (false-positive) races. *)

let test_sem_hb_native () =
  let eng, mon = monitored () in
  let rt = Pthread.create eng (Rng.create 21) in
  let sem = Pthread.Sem.create ~name:"sem" rt 0 in
  let x = ref 0 in
  Engine.spawn eng ~name:"producer" (fun () ->
      Engine.sleep eng (Time.us 10);
      mem eng ~write:true ~loc:900 ~site:"sem.x";
      x := 41;
      Pthread.Sem.post sem);
  Engine.spawn eng ~name:"consumer" (fun () ->
      Pthread.Sem.wait sem;
      mem eng ~write:false ~loc:900 ~site:"sem.x";
      x := !x + 1);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "post->wait orders the accesses" 0
    (List.length (Hb.report mon).Hb.races);
  Alcotest.(check int) "both threads really ran" 42 !x

let test_barrier_hb_native () =
  let eng, mon = monitored () in
  let rt = Pthread.create eng (Rng.create 22) in
  let bar = Pthread.Barrier.create ~name:"bar" rt 2 in
  let slot = [| 0; 0 |] in
  for i = 0 to 1 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Engine.sleep eng (Time.us (7 * (i + 1)));
        mem eng ~write:true ~loc:(910 + i) ~site:(Printf.sprintf "bar.slot%d" i);
        slot.(i) <- i + 1;
        Pthread.Barrier.wait bar;
        let j = 1 - i in
        mem eng ~write:false ~loc:(910 + j) ~site:(Printf.sprintf "bar.slot%d" j);
        ignore slot.(j))
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "barrier orders writes before cross-reads" 0
    (List.length (Hb.report mon).Hb.races)

let test_sem_hb_dmt () =
  let eng, mon = monitored () in
  let dmt = Dmt.create eng in
  let sem = Dmt.Sem.create ~name:"sem" dmt 0 in
  let x = ref 0 in
  Dmt.spawn dmt ~name:"producer" (fun () ->
      mem eng ~write:true ~loc:920 ~site:"dsem.x";
      x := 41;
      Dmt.Sem.post sem);
  Dmt.spawn dmt ~name:"consumer" (fun () ->
      Dmt.Sem.wait sem;
      mem eng ~write:false ~loc:920 ~site:"dsem.x";
      x := !x + 1);
  Engine.at eng (Time.ms 10) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "post->wait orders the accesses (DMT)" 0
    (List.length (Hb.report mon).Hb.races);
  Alcotest.(check int) "both threads really ran" 42 !x

let test_barrier_hb_dmt () =
  let eng, mon = monitored () in
  let dmt = Dmt.create eng in
  let bar = Dmt.Barrier.create ~name:"bar" dmt 2 in
  let slot = [| 0; 0 |] in
  let done_ = ref 0 in
  for i = 0 to 1 do
    Dmt.spawn dmt ~name:(Printf.sprintf "w%d" i) (fun () ->
        mem eng ~write:true ~loc:(930 + i) ~site:(Printf.sprintf "dbar.slot%d" i);
        slot.(i) <- i + 1;
        Dmt.Barrier.wait bar;
        let j = 1 - i in
        mem eng ~write:false ~loc:(930 + j) ~site:(Printf.sprintf "dbar.slot%d" j);
        ignore slot.(j);
        incr done_)
  done;
  Engine.at eng (Time.ms 10) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "both passed the barrier" 2 !done_;
  Alcotest.(check int) "barrier orders writes before cross-reads (DMT)" 0
    (List.length (Hb.report mon).Hb.races)

(* Sanity for the hand-emitted path itself: with NO synchronization the
   same shape must race. *)
let test_unsynced_mem_races () =
  let eng, mon = monitored () in
  for i = 0 to 1 do
    Engine.spawn eng ~name:(Printf.sprintf "u%d" i) (fun () ->
        Engine.sleep eng (Time.us (3 * (i + 1)));
        mem eng ~write:true ~loc:940 ~site:"unsync.x")
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "unsynchronized writes race" true
    ((Hb.report mon).Hb.races <> [])

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "race: true positive on seeded race" `Quick
          test_race_true_positive;
        Alcotest.test_case "race: no false positive on locked counter" `Quick
          test_no_false_positive_on_locked_counter;
        Alcotest.test_case "race: DMT serializes the race away" `Quick
          test_dmt_serializes_the_race_away;
        Alcotest.test_case "certifier: replay + cross-seed verdicts" `Quick
          test_certifier;
        Alcotest.test_case "report: byte-identical for identical seeds" `Quick
          test_report_byte_identical;
        Alcotest.test_case "lint: lock-order cycle detected" `Quick
          test_lock_inversion_cycle;
        Alcotest.test_case "lint: consistent order is clean" `Quick
          test_no_inversion_with_consistent_order;
        Alcotest.test_case "hb: sem post->wait edge (native)" `Quick
          test_sem_hb_native;
        Alcotest.test_case "hb: barrier edges (native)" `Quick
          test_barrier_hb_native;
        Alcotest.test_case "hb: sem post->wait edge (DMT)" `Quick test_sem_hb_dmt;
        Alcotest.test_case "hb: barrier edges (DMT)" `Quick test_barrier_hb_dmt;
        Alcotest.test_case "hb: unsynchronized accesses do race" `Quick
          test_unsynced_mem_races;
      ] );
  ]
