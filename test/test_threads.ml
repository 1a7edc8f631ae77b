(* Tests for the nondeterministic Pthreads model and the PARROT DMT
   scheduler: mutual exclusion, condvars, and above all the determinism
   property that motivates DMT. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Pthread = Crane_pthread.Pthread
module Dmt = Crane_dmt.Dmt

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Pthread *)

let test_pthread_mutex_exclusion () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 3) in
  let mu = Pthread.Mutex.create rt in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  for i = 1 to 8 do
    Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
        for _ = 1 to 20 do
          Pthread.Mutex.lock mu;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Engine.sleep eng (Time.us 3);
          decr inside;
          incr total;
          Pthread.Mutex.unlock mu
        done)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "all iterations ran" 160 !total

let test_pthread_cond_producer_consumer () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 4) in
  let mu = Pthread.Mutex.create rt in
  let cv = Pthread.Cond.create rt in
  let queue = Queue.create () in
  let consumed = ref [] in
  Engine.spawn eng ~name:"producer" (fun () ->
      for i = 1 to 50 do
        Engine.sleep eng (Time.us 10);
        Pthread.Mutex.lock mu;
        Queue.add i queue;
        Pthread.Cond.signal cv;
        Pthread.Mutex.unlock mu
      done);
  for c = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "consumer%d" c) (fun () ->
        let continue_ = ref true in
        while !continue_ do
          Pthread.Mutex.lock mu;
          while Queue.is_empty queue && List.length !consumed < 50 do
            Pthread.Cond.wait cv mu
          done;
          (match Queue.take_opt queue with
          | Some v -> consumed := v :: !consumed
          | None -> continue_ := false);
          if List.length !consumed >= 50 then begin
            continue_ := false;
            Pthread.Cond.broadcast cv
          end;
          Pthread.Mutex.unlock mu
        done)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "all consumed" 50 (List.length !consumed);
  Alcotest.(check (list int)) "every item exactly once"
    (List.init 50 (fun i -> i + 1))
    (List.sort compare !consumed)

let test_pthread_rwlock () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 5) in
  let rw = Pthread.Rwlock.create rt in
  let readers_in = ref 0 and writers_in = ref 0 in
  let violation = ref false in
  for i = 1 to 6 do
    Engine.spawn eng ~name:(Printf.sprintf "r%d" i) (fun () ->
        for _ = 1 to 10 do
          Pthread.Rwlock.rdlock rw;
          incr readers_in;
          if !writers_in > 0 then violation := true;
          Engine.sleep eng (Time.us 2);
          decr readers_in;
          Pthread.Rwlock.unlock rw
        done)
  done;
  for i = 1 to 2 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        for _ = 1 to 10 do
          Pthread.Rwlock.wrlock rw;
          incr writers_in;
          if !readers_in > 0 || !writers_in > 1 then violation := true;
          Engine.sleep eng (Time.us 2);
          decr writers_in;
          Pthread.Rwlock.unlock rw
        done)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "no reader/writer overlap" false !violation

let test_pthread_sem () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 6) in
  let sem = Pthread.Sem.create rt 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for i = 1 to 6 do
    Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
        Pthread.Sem.wait sem;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.sleep eng (Time.us 5);
        decr inside;
        Pthread.Sem.post sem)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "at most two inside" true (!max_inside <= 2)

let test_pthread_barrier () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 7) in
  let b = Pthread.Barrier.create rt 4 in
  let release_times = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
        Engine.sleep eng (Time.us (i * 10));
        Pthread.Barrier.wait b;
        release_times := Engine.now eng :: !release_times)
  done;
  Engine.run eng;
  check_no_failures eng;
  match !release_times with
  | [] -> Alcotest.fail "nobody released"
  | t0 :: rest ->
    List.iter
      (fun t ->
        Alcotest.(check bool) "released within a context switch" true
          (abs (t - t0) <= Time.us 200))
      rest

(* Unlock is owner-checked: POSIX leaves unlock-by-non-owner undefined;
   the model turns it into a hard error so analysis runs can trust the
   release events. *)
let test_pthread_unlock_by_non_owner () =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create 9) in
  let mu = Pthread.Mutex.create ~name:"owned" rt in
  let raised = ref false in
  Engine.spawn eng ~name:"owner" (fun () ->
      Pthread.Mutex.lock mu;
      Engine.sleep eng (Time.us 100);
      Pthread.Mutex.unlock mu);
  Engine.spawn eng ~name:"intruder" (fun () ->
      Engine.sleep eng (Time.us 10);
      match Pthread.Mutex.unlock mu with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "unlock by non-owner raises" true !raised;
  match Pthread.Mutex.unlock mu with
  | () -> Alcotest.fail "unlock of unlocked mutex must raise"
  | exception Invalid_argument _ -> ()

(* Nondeterminism: the wake order under contention varies with the seed. *)
let pthread_wake_order seed =
  let eng = Engine.create () in
  let rt = Pthread.create eng (Rng.create seed) in
  let mu = Pthread.Mutex.create rt in
  let order = ref [] in
  Engine.spawn eng ~name:"holder" (fun () ->
      Pthread.Mutex.lock mu;
      Engine.sleep eng (Time.ms 1);
      Pthread.Mutex.unlock mu);
  for i = 1 to 6 do
    Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
        Engine.sleep eng (Time.us i);
        Pthread.Mutex.lock mu;
        order := i :: !order;
        Pthread.Mutex.unlock mu)
  done;
  Engine.run eng;
  check_no_failures eng;
  List.rev !order

let test_pthread_nondeterministic_wake () =
  let orders = List.init 10 (fun s -> pthread_wake_order (s + 1)) in
  let distinct = List.sort_uniq compare orders in
  Alcotest.(check bool) "seeds produce different wake orders" true
    (List.length distinct > 1)

(* ------------------------------------------------------------------ *)
(* DMT *)

let test_dmt_round_robin () =
  (* Three threads each doing sync ops take turns in round-robin order. *)
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let order = ref [] in
  for i = 1 to 3 do
    Dmt.spawn dmt ~name:(Printf.sprintf "t%d" i) (fun () ->
        for _ = 1 to 4 do
          Dmt.get_turn dmt;
          order := i :: !order;
          Dmt.put_turn dmt
        done)
  done;
  Engine.at eng (Time.ms 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check (list int)) "strict round robin"
    [ 1; 2; 3; 1; 2; 3; 1; 2; 3; 1; 2; 3 ]
    (List.rev !order)

let test_dmt_mutex_exclusion () =
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let mu = Dmt.Mutex.create dmt in
  let inside = ref 0 and max_inside = ref 0 and total = ref 0 in
  for i = 1 to 6 do
    Dmt.spawn dmt ~name:(Printf.sprintf "t%d" i) (fun () ->
        for _ = 1 to 10 do
          Dmt.Mutex.lock mu;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Engine.sleep eng (Time.us 2);
          decr inside;
          incr total;
          Dmt.Mutex.unlock mu
        done)
  done;
  Engine.at eng (Time.sec 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "all iterations" 60 !total

let test_dmt_cond () =
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let mu = Dmt.Mutex.create dmt in
  let cv = Dmt.Cond.create dmt in
  let queue = Queue.create () in
  let consumed = ref 0 in
  Dmt.spawn dmt ~name:"producer" (fun () ->
      for i = 1 to 30 do
        Dmt.Mutex.lock mu;
        Queue.add i queue;
        Dmt.Cond.signal cv;
        Dmt.Mutex.unlock mu
      done);
  for c = 1 to 3 do
    Dmt.spawn dmt ~name:(Printf.sprintf "consumer%d" c) (fun () ->
        let continue_ = ref true in
        while !continue_ do
          Dmt.Mutex.lock mu;
          while Queue.is_empty queue && !consumed < 30 do
            Dmt.Cond.wait cv mu
          done;
          (match Queue.take_opt queue with
          | Some _ -> incr consumed
          | None -> ());
          if !consumed >= 30 then begin
            continue_ := false;
            Dmt.Cond.broadcast cv
          end;
          Dmt.Mutex.unlock mu
        done)
  done;
  Engine.at eng (Time.sec 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "all consumed" 30 !consumed

(* The headline property: the schedule (order of sync ops) is identical
   across runs even when thread release times jitter with the seed. *)
let dmt_schedule seed =
  let eng = Engine.create () in
  let rng = Rng.create seed in
  let dmt = Dmt.create eng in
  let mu = Dmt.Mutex.create dmt in
  let trace = Buffer.create 64 in
  for i = 1 to 4 do
    let delay = Time.us (Rng.int rng 50) in
    Dmt.spawn dmt ~name:(Printf.sprintf "t%d" i) (fun () ->
        (* Jittered start: in a nondeterministic runtime this would change
           the lock acquisition order. *)
        Engine.sleep eng delay;
        for _ = 1 to 5 do
          Dmt.Mutex.lock mu;
          Buffer.add_string trace (Printf.sprintf "%d;" i);
          Dmt.Mutex.unlock mu
        done)
  done;
  Engine.at eng (Time.sec 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Buffer.contents trace

let test_dmt_schedule_deterministic () =
  let reference = dmt_schedule 1 in
  for seed = 2 to 8 do
    Alcotest.(check string) "same schedule under timing jitter" reference
      (dmt_schedule seed)
  done

let prop_dmt_deterministic =
  QCheck.Test.make ~name:"dmt schedule independent of timing seed" ~count:20
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) -> dmt_schedule s1 = dmt_schedule s2)

(* By contrast the pthread runtime diverges (sanity check of the model). *)
let test_pthread_schedule_varies () =
  let runs = List.init 12 (fun s -> pthread_wake_order (100 + s)) in
  Alcotest.(check bool) "pthread wake orders vary" true
    (List.length (List.sort_uniq compare runs) > 1)

let test_dmt_block_external_arrival_order () =
  (* block_external rejoins in completion order: network nondeterminism
     survives a plain PARROT run. *)
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let order = ref [] in
  for i = 1 to 3 do
    Dmt.spawn dmt ~name:(Printf.sprintf "t%d" i) (fun () ->
        Dmt.block_external dmt (fun () ->
            (* Completion times inverted w.r.t. spawn order. *)
            Engine.sleep eng (Time.us (40 - (10 * i))));
        Dmt.get_turn dmt;
        order := i :: !order;
        Dmt.put_turn dmt)
  done;
  Engine.at eng (Time.ms 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check (list int)) "completion order wins" [ 3; 2; 1 ]
    (List.rev !order)

let test_dmt_clock_advances () =
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  Dmt.spawn dmt ~name:"t" (fun () ->
      for _ = 1 to 10 do
        Dmt.get_turn dmt;
        Dmt.put_turn dmt
      done);
  Engine.at eng (Time.ms 1) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "clock ticked at least per put_turn" true
    (Dmt.clock dmt >= 10)

let test_dmt_soft_barrier_lines_up () =
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let sb = Dmt.Soft_barrier.create dmt ~n:3 ~timeout_ticks:1_000_000 in
  let release_clock = ref [] in
  for i = 1 to 3 do
    Dmt.spawn dmt ~name:(Printf.sprintf "t%d" i) (fun () ->
        (* Staggered arrival via differing amounts of pre-work. *)
        for _ = 1 to i * 3 do
          Dmt.get_turn dmt;
          Dmt.put_turn dmt
        done;
        Dmt.Soft_barrier.wait sb;
        Dmt.get_turn dmt;
        release_clock := Dmt.clock dmt :: !release_clock;
        Dmt.put_turn dmt)
  done;
  Engine.at eng (Time.ms 10) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  match List.sort compare !release_clock with
  | [ a; _; c ] ->
    Alcotest.(check bool) "released together (within one rotation)" true
      (c - a <= 6)
  | _ -> Alcotest.fail "not all released"

let test_dmt_soft_barrier_timeout () =
  (* Fewer arrivals than n: the deterministic timeout releases them. *)
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let sb = Dmt.Soft_barrier.create dmt ~n:5 ~timeout_ticks:20 in
  let released = ref false in
  Dmt.spawn dmt ~name:"lonely" (fun () ->
      Dmt.Soft_barrier.wait sb;
      released := true);
  Dmt.spawn dmt ~name:"ticker" (fun () ->
      for _ = 1 to 100 do
        Dmt.get_turn dmt;
        Dmt.put_turn dmt
      done);
  Engine.at eng (Time.ms 10) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "timeout released the waiter" true !released

let test_dmt_idle_keeps_clock_alive () =
  (* All threads blocked on external input: the idle thread still ticks,
     so a later event can be admitted at a growing logical clock. *)
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let woke = ref false in
  let obj = Dmt.new_obj dmt in
  Dmt.spawn dmt ~name:"waiter" (fun () ->
      Dmt.get_turn dmt;
      Dmt.wait dmt ~obj;
      woke := true;
      Dmt.put_turn dmt);
  (* An external event signals through a helper thread much later. *)
  Engine.at eng (Time.ms 1) (fun () ->
      Dmt.spawn dmt ~name:"signaller" (fun () ->
          Dmt.get_turn dmt;
          Dmt.signal dmt ~obj;
          Dmt.put_turn dmt));
  Engine.at eng (Time.ms 5) (fun () -> Dmt.stop dmt);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "waiter woken" true !woke;
  Alcotest.(check bool) "idle ticked while blocked" true (Dmt.clock dmt > 10)

(* A wait queue lives only while someone waits on its object: a thread
   that waits once on each of 1,000 fresh objects, each signalled once,
   leaves the scheduler no bigger than after the first 10.  Both sizes are
   taken at the same point of the waiter's loop. *)
let test_dmt_waitq_freed () =
  let eng = Engine.create () in
  let dmt = Dmt.create eng in
  let waiting = ref None and finished = ref false in
  let base = ref 0 and last = ref 0 in
  Dmt.spawn dmt ~name:"waiter" (fun () ->
      for i = 1 to 1000 do
        Dmt.get_turn dmt;
        let obj = Dmt.new_obj dmt in
        waiting := Some obj;
        Dmt.wait dmt ~obj;
        if i = 10 then base := Obj.reachable_words (Obj.repr dmt);
        if i = 1000 then last := Obj.reachable_words (Obj.repr dmt);
        Dmt.put_turn dmt
      done;
      finished := true;
      Dmt.stop dmt);
  Dmt.spawn dmt ~name:"signaller" (fun () ->
      while not !finished do
        Dmt.get_turn dmt;
        (match !waiting with
        | Some obj ->
          waiting := None;
          Dmt.signal dmt ~obj
        | None -> ());
        Dmt.put_turn dmt
      done);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "waiter finished" true !finished;
  let grown = !last - !base in
  if grown > 200 then
    Alcotest.failf "scheduler grew by %d words over 990 signalled objects" grown

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "pthread",
      [
        Alcotest.test_case "mutex exclusion" `Quick test_pthread_mutex_exclusion;
        Alcotest.test_case "cond producer/consumer" `Quick
          test_pthread_cond_producer_consumer;
        Alcotest.test_case "rwlock" `Quick test_pthread_rwlock;
        Alcotest.test_case "semaphore" `Quick test_pthread_sem;
        Alcotest.test_case "barrier" `Quick test_pthread_barrier;
        Alcotest.test_case "unlock by non-owner raises" `Quick
          test_pthread_unlock_by_non_owner;
        Alcotest.test_case "nondeterministic wake order" `Quick
          test_pthread_nondeterministic_wake;
      ] );
    ( "dmt",
      [
        Alcotest.test_case "round robin" `Quick test_dmt_round_robin;
        Alcotest.test_case "mutex exclusion" `Quick test_dmt_mutex_exclusion;
        Alcotest.test_case "condvar" `Quick test_dmt_cond;
        Alcotest.test_case "schedule deterministic" `Quick
          test_dmt_schedule_deterministic;
        qcheck prop_dmt_deterministic;
        Alcotest.test_case "pthread varies (contrast)" `Quick
          test_pthread_schedule_varies;
        Alcotest.test_case "block_external arrival order" `Quick
          test_dmt_block_external_arrival_order;
        Alcotest.test_case "clock advances" `Quick test_dmt_clock_advances;
        Alcotest.test_case "soft barrier lines up" `Quick
          test_dmt_soft_barrier_lines_up;
        Alcotest.test_case "soft barrier timeout" `Quick
          test_dmt_soft_barrier_timeout;
        Alcotest.test_case "idle keeps clock alive" `Quick
          test_dmt_idle_keeps_clock_alive;
        Alcotest.test_case "wait queues freed" `Quick test_dmt_waitq_freed;
      ] );
  ]
