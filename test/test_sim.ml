(* Tests for the discrete-event kernel: ordering, determinism, threads,
   wakers, groups/kill semantics, spinners and their closed form, core
   pool. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Pheap = Crane_sim.Pheap
module Engine = Crane_sim.Engine
module Cores = Crane_sim.Cores
module Loadgen = Crane_workload.Loadgen

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Pheap *)

let test_pheap_order () =
  let h = Pheap.create () in
  Pheap.push h ~time:5 ~seq:0 "a";
  Pheap.push h ~time:1 ~seq:1 "b";
  Pheap.push h ~time:5 ~seq:2 "c";
  Pheap.push h ~time:0 ~seq:3 "d";
  let order = ref [] in
  while not (Pheap.is_empty h) do
    order := Pheap.pop_min h :: !order
  done;
  Alcotest.(check (list string)) "time then seq" [ "d"; "b"; "a"; "c" ]
    (List.rev !order);
  Alcotest.(check int) "empty min_time" max_int (Pheap.min_time h)

let prop_pheap_sorted =
  QCheck.Test.make ~name:"pheap pops sorted by (time, seq)" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = Pheap.create () in
      List.iteri (fun i (t, _) -> Pheap.push h ~time:t ~seq:i (t, i)) entries;
      let rec drain acc =
        if Pheap.is_empty h then List.rev acc
        else
          let t = Pheap.min_time h in
          let ((t', _) as key) = Pheap.pop_min h in
          if t <> t' then QCheck.Test.fail_report "min_time disagrees with pop_min";
          drain (key :: acc)
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted)

(* Random pushes, removals of pushed entries and pops, against a model
   that keeps the surviving keys in a sorted list: every pop returns the
   model's least key, and [length] and [min_time] always agree with it.
   The ops run twice, each pass drained to empty, so the second pass
   pushes after pops and removals and reuses their freed slots. *)
type pheap_op = Push of int | Remove of int | Pop

let prop_pheap_remove =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (frequency
           [ (4, map (fun t -> Push t) (int_bound 20)); (2, map (fun i -> Remove i) nat); (1, return Pop) ]))
  in
  let print ops =
    String.concat " "
      (List.map (function Push t -> Printf.sprintf "push%d" t | Remove i -> Printf.sprintf "rm%d" i | Pop -> "pop") ops)
  in
  QCheck.Test.make ~name:"pheap with removals pops survivors in (time, seq) order" ~count:300
    (QCheck.make ~print gen)
    (fun ops ->
      let h = Pheap.create () in
      let model = ref [] and seq = ref 0 in
      let agree () =
        Pheap.length h = List.length !model
        && Pheap.min_time h = (match !model with (t, _) :: _ -> t | [] -> max_int)
      in
      let step = function
        | Push t ->
          Pheap.push h ~time:t ~seq:!seq (t, !seq);
          model := List.merge compare [ (t, !seq) ] !model;
          incr seq;
          true
        | Remove i -> (
          match !model with
          | [] -> true
          | m ->
            let ((time, seq) as key) = List.nth m (i mod List.length m) in
            Pheap.remove h ~time ~seq;
            model := List.filter (( <> ) key) m;
            true)
        | Pop -> (
          match !model with
          | [] -> Pheap.is_empty h
          | key :: rest ->
            model := rest;
            Pheap.pop_min h = key)
      in
      let rec drain () =
        match !model with
        | [] -> Pheap.is_empty h
        | key :: rest -> model := rest; Pheap.pop_min h = key && agree () && drain ()
      in
      let pass () = List.for_all (fun op -> step op && agree ()) ops && drain () in
      pass () && pass ())

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.next a and xb = Rng.next b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_nat (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      0 <= x && x < bound)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_nat (small_list int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      List.sort compare (Rng.shuffle r l) = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_timers_fire_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng (Time.ms 3) (fun () -> log := 3 :: !log);
  Engine.at eng (Time.ms 1) (fun () -> log := 1 :: !log);
  Engine.at eng (Time.ms 2) (fun () -> log := 2 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" (Time.ms 3) (Engine.now eng)

let test_same_instant_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.at eng (Time.ms 1) (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_thread_sleep () =
  let eng = Engine.create () in
  let t_end = ref Time.zero in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng (Time.ms 5);
      Engine.sleep eng (Time.ms 7);
      t_end := Engine.now eng);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "slept 12ms" (Time.ms 12) !t_end

let test_suspend_wake () =
  let eng = Engine.create () in
  let slot = ref None in
  let result = ref 0 in
  Engine.spawn eng ~name:"blocker" (fun () ->
      let v = Engine.suspend eng (fun wake -> slot := Some wake) in
      result := v);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep eng (Time.ms 1);
      match !slot with
      | Some wake -> Alcotest.(check bool) "wake wins" true (wake 42)
      | None -> Alcotest.fail "blocker did not park");
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "woken with value" 42 !result

let test_waker_idempotent () =
  let eng = Engine.create () in
  let slot = ref None in
  let hits = ref 0 in
  Engine.spawn eng ~name:"blocker" (fun () ->
      let _ = Engine.suspend eng (fun wake -> slot := Some wake) in
      incr hits);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep eng (Time.ms 1);
      match !slot with
      | Some wake ->
        Alcotest.(check bool) "first" true (wake 1);
        Alcotest.(check bool) "second loses" false (wake 2)
      | None -> Alcotest.fail "no waker");
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "resumed once" 1 !hits

let test_kill_group () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let progressed = ref 0 in
  let hook_ran = ref false in
  Engine.on_kill eng g (fun () -> hook_ran := true);
  Engine.spawn eng ~group:g ~name:"victim" (fun () ->
      incr progressed;
      Engine.sleep eng (Time.ms 10);
      incr progressed);
  Engine.at eng (Time.ms 5) (fun () -> Engine.kill_group eng g);
  Engine.at eng ~group:g (Time.ms 7) (fun () -> progressed := 100);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "stopped mid-sleep, group callback dropped" 1 !progressed;
  Alcotest.(check bool) "kill hook ran" true !hook_ran;
  Alcotest.(check bool) "group dead" false (Engine.group_alive eng g)

(* A cancellable timer is [after] plus a flag the callback checks. *)
let test_timer_cancel () =
  let eng = Engine.create () in
  let fired = ref false and cancelled = ref false in
  Engine.after eng (Time.ms 2) (fun () -> if not !cancelled then fired := true);
  Engine.at eng (Time.ms 1) (fun () -> cancelled := true);
  Engine.run eng;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.at eng (Time.ms 10) (fun () -> fired := true);
  Engine.run ~until:(Time.ms 5) eng;
  Alcotest.(check bool) "future event pending" false !fired;
  Alcotest.(check int) "clock stopped at until" (Time.ms 5) (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "resumes" true !fired

(* A drained [run ~until] leaves the clock at the last event, so a loop
   stepping towards a deadline has to stop when nothing is pending. *)
let test_step_until_drained () =
  let eng = Engine.create () in
  Engine.at eng (Time.ms 3) ignore;
  Loadgen.step_until eng ~step:(Time.ms 1) ~deadline:(Time.sec 10) (fun () -> false);
  Alcotest.(check int) "clock at the last event" (Time.ms 3) (Engine.now eng);
  Alcotest.(check int) "drained" 0 (Engine.pending_events eng)

let test_spawn_inherits_group () =
  let eng = Engine.create () in
  let g = Engine.new_group eng in
  let child_ran = ref false in
  Engine.spawn eng ~group:g ~name:"parent" (fun () ->
      Engine.spawn eng ~name:"child" (fun () ->
          Engine.sleep eng (Time.ms 10);
          child_ran := true));
  Engine.at eng (Time.ms 1) (fun () -> Engine.kill_group eng g);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "child died with parent group" false !child_ran

let test_failure_recorded () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"bad" (fun () -> failwith "boom");
  Engine.run eng;
  match Engine.failures eng with
  | [ ("bad", Failure _) ] -> ()
  | _ -> Alcotest.fail "expected one recorded failure"

let test_limit () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"loop" (fun () ->
      let rec go () =
        Engine.yield eng;
        go ()
      in
      go ());
  Alcotest.check_raises "limit guard" Engine.Limit_exceeded (fun () ->
      Engine.run ~limit:1000 eng)

(* Determinism: the same seeded program produces the identical trace. *)
let run_noise_trace seed =
  let eng = Engine.create () in
  let rng = Rng.create seed in
  let trace = Buffer.create 256 in
  for i = 1 to 20 do
    let d = Time.us (Rng.int rng 500) in
    Engine.at eng d (fun () ->
        Buffer.add_string trace (Printf.sprintf "%d@%d;" i (Engine.now eng)))
  done;
  Engine.spawn eng ~name:"t" (fun () ->
      for _ = 1 to 5 do
        Engine.sleep eng (Time.us (Rng.int rng 300));
        Buffer.add_string trace (Printf.sprintf "t@%d;" (Engine.now eng))
      done);
  Engine.run eng;
  Buffer.contents trace

let test_deterministic_replay () =
  Alcotest.(check string) "identical traces" (run_noise_trace 99) (run_noise_trace 99)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine replay is deterministic" ~count:50
    QCheck.small_nat
    (fun seed -> run_noise_trace seed = run_noise_trace seed)

(* Two-tier queue: a heap event queued earlier for instant T runs before
   the same-instant events queued once the clock has reached T. *)
let test_tiers_heap_before_ready () =
  let eng = Engine.create () in
  let log = ref [] in
  let pending = ref 0 in
  Engine.at eng (Time.ms 1) (fun () ->
      log := "x" :: !log;
      Engine.at eng (Engine.now eng) (fun () -> log := "z" :: !log);
      Engine.spawn eng ~name:"w" (fun () -> log := "w" :: !log);
      pending := Engine.pending_events eng);
  Engine.at eng (Time.ms 1) (fun () -> log := "y" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "heap first, then ready in order" [ "x"; "y"; "z"; "w" ]
    (List.rev !log);
  Alcotest.(check int) "pending counts both tiers" 3 !pending

(* The order reference: a naive engine that keeps every pending event in
   a list and runs the least [(time, seq)] one.  Same scheduling rules as
   {!Engine}: times below now are clamped to now, a spawn starts now (in
   its parent's group unless given one), a waker schedules its resume now
   and loses once the thread's group is dead, [sleep d] is a wake-up
   event at [now + d], a timed wait queues its timer after its setup
   runs and drops it from the queue when the waker wins (unless it was
   due at once), [spin] is the naive [sleep; step] loop, and
   [run ~until] sets the clock to [until] when the next event lies beyond
   it. *)
module Ref_engine = struct
  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable q : (int * int * (unit -> unit)) list;
    mutable dead : int list;
    mutable cur : int option;  (** group of the running thread *)
  }

  type _ Effect.t +=
    | Wait : ((int -> bool) -> unit) -> int Effect.t
    | Wait_timeout : int * ((int -> bool) -> unit) -> int option Effect.t

  let create () = { clock = 0; seq = 0; q = []; dead = []; cur = None }

  let alive t = function None -> true | Some g -> not (List.mem g t.dead)

  let schedule t time fn =
    t.q <- (max time t.clock, t.seq, fn) :: t.q;
    t.seq <- t.seq + 1

  let enter t group f =
    let saved = t.cur in
    t.cur <- group;
    f ();
    t.cur <- saved

  let spawn t ?group body =
    let open Effect.Deep in
    let group = match group with Some _ -> group | None -> t.cur in
    schedule t t.clock (fun () ->
        if alive t group then
          enter t group (fun () ->
              match_with body ()
                {
                  retc = Fun.id;
                  exnc = raise;
                  effc =
                    (fun (type a) (e : a Effect.t) ->
                      let resume (k : (a, unit) continuation) v =
                        schedule t t.clock (fun () ->
                            if alive t group then enter t group (fun () -> continue k v))
                      in
                      match e with
                      | Wait f ->
                        Some
                          (fun k ->
                            let fired = ref false in
                            f (fun v ->
                                if !fired || not (alive t group) then false
                                else begin
                                  fired := true;
                                  resume k v;
                                  true
                                end))
                      | Wait_timeout (d, f) ->
                        (* The timer is queued after [f] runs and leaves
                           the queue when the waker wins, unless it was
                           due at once. *)
                        Some
                          (fun k ->
                            let fired = ref false and timer = ref None in
                            f (fun v ->
                                if !fired || not (alive t group) then false
                                else begin
                                  fired := true;
                                  Option.iter
                                    (fun s -> t.q <- List.filter (fun (_, s', _) -> s' <> s) t.q)
                                    !timer;
                                  resume k (Some v);
                                  true
                                end);
                            if not !fired then begin
                              if d > 0 then timer := Some t.seq;
                              schedule t (t.clock + d) (fun () ->
                                  if (not !fired) && alive t group then begin
                                    fired := true;
                                    resume k None
                                  end)
                            end)
                      | _ -> None);
                }))

  let suspend f = Effect.perform (Wait f)
  let suspend_timeout d f = Effect.perform (Wait_timeout (d, f))

  let sleep t d = ignore (suspend (fun wake -> schedule t (t.clock + d) (fun () -> ignore (wake 0))))

  let spin t ~period step =
    let rec go () =
      sleep t period;
      if step () then go ()
    in
    go ()

  let run ?(until = max_int) t =
    let rec loop () =
      match List.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) t.q with
      | [] -> ()
      | (time, _, _) :: _ when time > until -> t.clock <- until
      | (time, seq, fn) :: _ ->
        t.q <- List.filter (fun (_, s, _) -> s <> seq) t.q;
        t.clock <- time;
        fn ();
        loop ()
    in
    loop ()
end

(* The operations a random program uses, over either engine.  Groups 0
   and 1 exist from the start. *)
type sim_api = {
  now : unit -> int;
  at : int -> (unit -> unit) -> unit;
  spawn : ?group:int -> (unit -> unit) -> unit;
  kill : int -> unit;
  sleep : int -> unit;
  yield : unit -> unit;
  suspend : ((int -> bool) -> unit) -> int;
  suspend_timeout : int -> ((int -> bool) -> unit) -> int option;
  spin : int -> ahead:(unit -> int) -> skip:(int -> unit) -> (unit -> bool) -> unit;
  run : int option -> unit;
  pending : unit -> int;
  skipped : unit -> int;  (** spinner steps applied in closed form *)
}

let real_api () =
  let eng = Engine.create () in
  let groups = Array.init 2 (fun _ -> Engine.new_group eng) in
  {
    now = (fun () -> Engine.now eng);
    at = (fun time fn -> Engine.at eng time fn);
    spawn = (fun ?group body -> Engine.spawn eng ?group:(Option.map (Array.get groups) group) ~name:"t" body);
    kill = (fun g -> Engine.kill_group eng groups.(g));
    sleep = (fun d -> Engine.sleep eng d);
    yield = (fun () -> Engine.yield eng);
    suspend = (fun f -> Engine.suspend eng f);
    suspend_timeout = (fun d f -> Engine.suspend_timeout eng d f);
    spin = (fun period ~ahead ~skip step -> Engine.spin eng ~period ~ahead ~skip step);
    run = (fun until -> Engine.run ?until eng);
    pending = (fun () -> Engine.pending_events eng);
    skipped = (fun () -> (Engine.stats eng).Engine.spin_skipped);
  }

let ref_api () =
  let e = Ref_engine.create () in
  {
    now = (fun () -> e.Ref_engine.clock);
    at = (fun time fn -> Ref_engine.schedule e time fn);
    spawn = (fun ?group body -> Ref_engine.spawn e ?group body);
    kill = (fun g -> if not (List.mem g e.Ref_engine.dead) then e.Ref_engine.dead <- g :: e.Ref_engine.dead);
    sleep = (fun d -> Ref_engine.sleep e d);
    yield = (fun () -> Ref_engine.sleep e 0);
    suspend = Ref_engine.suspend;
    suspend_timeout = Ref_engine.suspend_timeout;
    spin = (fun period ~ahead:_ ~skip:_ step -> Ref_engine.spin e ~period step);
    run = (fun until -> Ref_engine.run ?until e);
    pending = (fun () -> List.length e.Ref_engine.q);
    skipped = (fun () -> 0);
  }

(* A cancellable timer: [at] plus a flag, over either engine. *)
let timer api d fn =
  let cancelled = ref false in
  api.at (api.now () + d) (fun () -> if not !cancelled then fn ());
  fun () -> cancelled := true

(* Delays are tiny so that many events share an instant, and a delay of
   0 schedules at now: both tiers are busy at once. *)
type op =
  | Log of int
  | At of int * op list  (** a callback at now + d *)
  | Spawn of int option * op list  (** a thread, maybe in a group *)
  | Sleep of int
  | Yield
  | Park of int * int option  (** suspend, waker in a slot, maybe a timeout *)
  | Park_timed of int * int  (** suspend with an engine-owned timeout *)
  | Wake of int * int  (** fire the waker in a slot *)
  | Timer of int * int * op list  (** a timer, its canceller in a slot *)
  | Cancel of int
  | Kill of int  (** crash a group *)
  | Spin of int * int * int
      (** [Spin (period, steps, budget)]: spin until the step count
          reaches [steps]; the next [budget] steps have a closed form *)
  | Peek of int  (** log a spinner's counters *)
  | Refill of int * int  (** grant a spinner more closed-form steps *)

let slots = 3

let rec pp_op = function
  | Log i -> Printf.sprintf "log%d" i
  | At (d, ops) -> Printf.sprintf "at+%d[%s]" d (pp_ops ops)
  | Spawn (g, ops) ->
    Printf.sprintf "spawn%s[%s]" (match g with Some g -> Printf.sprintf "@g%d" g | None -> "") (pp_ops ops)
  | Sleep d -> Printf.sprintf "sleep%d" d
  | Yield -> "yield"
  | Park (s, t) ->
    Printf.sprintf "park%d%s" s (match t with Some d -> Printf.sprintf "/%d" d | None -> "")
  | Park_timed (s, d) -> Printf.sprintf "tpark%d/%d" s d
  | Wake (s, v) -> Printf.sprintf "wake%d=%d" s v
  | Timer (s, d, ops) -> Printf.sprintf "timer%d+%d[%s]" s d (pp_ops ops)
  | Cancel s -> Printf.sprintf "cancel%d" s
  | Kill g -> Printf.sprintf "kill%d" g
  | Spin (p, n, b) -> Printf.sprintf "spin/%d:%d~%d" p n b
  | Peek s -> Printf.sprintf "peek%d" s
  | Refill (s, b) -> Printf.sprintf "refill%d+%d" s b

and pp_ops ops = String.concat ";" (List.map pp_op ops)

let gen_ops =
  let open QCheck.Gen in
  let delay = int_bound 3 and slot = int_bound (slots - 1) in
  let leaf =
    frequency
      [
        (3, map (fun i -> Log i) (int_bound 99));
        (2, map (fun d -> Sleep d) delay);
        (1, return Yield);
        (2, map2 (fun s t -> Park (s, t)) slot (opt delay));
        (2, map2 (fun s d -> Park_timed (s, d)) slot delay);
        (2, map2 (fun s v -> Wake (s, v)) slot (int_bound 99));
        (1, map (fun s -> Cancel s) slot);
        (1, map (fun g -> Kill g) (int_bound 1));
        (3, map3 (fun p n b -> Spin (p, n, b)) (int_range 1 4) (int_range 1 40) (int_bound 40));
        (1, map (fun s -> Peek s) slot);
        (1, map2 (fun s b -> Refill (s, b)) slot (int_bound 20));
      ]
  in
  fix
    (fun self depth ->
      let op =
        if depth = 0 then leaf
        else
          frequency
            [
              (5, leaf);
              (2, map2 (fun d ops -> At (d, ops)) delay (self (depth - 1)));
              (2, map2 (fun g ops -> Spawn (g, ops)) (opt (int_bound 1)) (self (depth - 1)));
              (1, map3 (fun s d ops -> Timer (s, d, ops)) slot delay (self (depth - 1)));
            ]
      in
      list_size (int_bound 5) op)
    3

(* A program: top-level ops, then rounds of [run ~until] (stops may lie
   behind the clock), each followed by more top-level ops; then a final
   unbounded run. *)
let gen_program =
  QCheck.Gen.(pair gen_ops (list_size (int_bound 4) (pair (int_bound 40) gen_ops)))

let pp_program (ops, rounds) =
  pp_ops ops
  ^ String.concat ""
      (List.map (fun (u, ops) -> Printf.sprintf " | until %d: %s" u (pp_ops ops)) rounds)

(* A spinner's state.  A closed-form step is exactly a step that spends
   budget; every other step logs. *)
type spinner = { mutable count : int; mutable budget : int; steps : int }

(* Run a program and return its observable log: every [Log] with the
   pending-event count, every waker verdict and resume value, every
   spinner step outside its closed form and every counter peek, each with
   the virtual instant it happened at. *)
let run_program api (ops, rounds) =
  let out = Buffer.create 256 in
  let note fmt = Printf.ksprintf (fun s -> Buffer.add_string out (Printf.sprintf "%s@%d " s (api.now ()))) fmt in
  let wakers = Array.make slots None and cancels = Array.make slots None in
  let spinners = Hashtbl.create 8 in
  let rec exec ~thread ops = List.iter (step ~thread) ops
  and step ~thread = function
    | Log i -> note "L%d:%d" i (api.pending ())
    | At (d, ops) -> api.at (api.now () + d) (fun () -> exec ~thread:false ops)
    | Spawn (group, ops) -> api.spawn ?group (fun () -> exec ~thread:true ops)
    | Sleep d -> if thread then api.sleep d
    | Yield -> if thread then api.yield ()
    | Park (s, timeout) ->
      if thread then begin
        let v =
          api.suspend (fun wake ->
              wakers.(s) <- Some wake;
              match timeout with
              | Some d -> api.at (api.now () + d) (fun () -> note "T%d:%b" s (wake (-1)))
              | None -> ())
        in
        note "R%d:%d" s v
      end
    | Park_timed (s, d) ->
      if thread then begin
        match api.suspend_timeout d (fun wake -> wakers.(s) <- Some wake) with
        | Some v -> note "R%d:%d" s v
        | None -> note "T%d" s
      end
    | Wake (s, v) -> (
      match wakers.(s) with Some w -> note "W%d:%b" s (w v) | None -> note "W%d:-" s)
    | Timer (s, d, ops) -> cancels.(s) <- Some (timer api d (fun () -> exec ~thread:false ops))
    | Cancel s -> Option.iter (fun c -> c ()) cancels.(s)
    | Kill g -> note "K%d" g; api.kill g
    | Spin (period, steps, budget) ->
      if thread then begin
        let id = Hashtbl.length spinners in
        let sp = { count = 0; budget; steps } in
        Hashtbl.add spinners id sp;
        let step () =
          sp.count <- sp.count + 1;
          if sp.budget > 0 then sp.budget <- sp.budget - 1 else note "S%d:%d" id sp.count;
          sp.count < sp.steps
        in
        let ahead () = max 0 (min sp.budget (sp.steps - sp.count - 1)) in
        let skip n =
          sp.count <- sp.count + n;
          sp.budget <- sp.budget - n
        in
        api.spin period ~ahead ~skip step;
        note "X%d:%d" id sp.count
      end
    | Peek s -> (
      match Hashtbl.find_opt spinners s with
      | Some sp -> note "P%d:%d/%d" s sp.count sp.budget
      | None -> note "P%d:-" s)
    | Refill (s, b) -> (
      match Hashtbl.find_opt spinners s with Some sp -> sp.budget <- sp.budget + b | None -> ())
  in
  exec ~thread:false ops;
  List.iter
    (fun (until, ops) ->
      api.run (Some until);
      note "U%d:%d" until (api.pending ());
      exec ~thread:false ops)
    rounds;
  api.run None;
  note "end:%d" (api.pending ());
  Buffer.contents out

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine runs in (time, seq) reference order" ~count:500
    (QCheck.make ~print:pp_program gen_program)
    (fun prog -> run_program (real_api ()) prog = run_program (ref_api ()) prog)

(* The property above cannot pass vacuously: on a fixed sample of
   generated programs, a good share batches spinner steps. *)
let test_spin_batching_exercised () =
  let rand = Random.State.make [| 13 |] in
  let progs = QCheck.Gen.generate ~rand ~n:400 gen_program in
  let batched =
    List.fold_left
      (fun acc prog ->
        let api = real_api () in
        let got = run_program api prog in
        if got <> run_program (ref_api ()) prog then
          Alcotest.failf "diverges from the reference: %s" (pp_program prog);
        if api.skipped () > 0 then acc + 1 else acc)
      0 progs
  in
  if batched * 5 < List.length progs then
    Alcotest.failf "only %d of %d programs batched a spinner step" batched (List.length progs)

(* A run's event limit is charged two events per closed-form step, and a
   batch that would cross it is stepped instead: the limit fires at the
   same step with or without the closed form.  The callback at 300 bounds
   the first batch, which fits the limit; the open-ended one after it
   does not. *)
let test_spin_limit_exact () =
  let run ~closed =
    let eng = Engine.create () in
    let count = ref 0 in
    Engine.at eng 300 ignore;
    Engine.spawn eng ~name:"spinner" (fun () ->
        Engine.spin eng ~period:3
          ~ahead:(fun () -> if closed then max_int else 0)
          ~skip:(fun n -> count := !count + n)
          (fun () -> incr count; true));
    (match Engine.run ~limit:1001 eng with
    | () -> Alcotest.fail "limit not hit"
    | exception Engine.Limit_exceeded -> ());
    (!count, Engine.now eng, (Engine.stats eng).Engine.spin_skipped)
  in
  let c1, t1, s1 = run ~closed:false and c2, t2, s2 = run ~closed:true in
  Alcotest.(check int) "stepped: no closed form" 0 s1;
  Alcotest.(check bool) "batched" true (s2 > 0);
  Alcotest.(check (pair int int)) "same step count and clock" (c1, t1) (c2, t2)

(* ------------------------------------------------------------------ *)
(* Cores *)

let test_cores_parallel () =
  let eng = Engine.create () in
  let pool = Cores.create eng 4 in
  let done_at = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Cores.work pool (Time.ms 10);
        done_at := Engine.now eng :: !done_at)
  done;
  Engine.run eng;
  check_no_failures eng;
  List.iter
    (fun t -> Alcotest.(check int) "all finish in parallel" (Time.ms 10) t)
    !done_at

let test_cores_queueing () =
  let eng = Engine.create () in
  let pool = Cores.create eng 2 in
  let finished = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Cores.work pool (Time.ms 10);
        finished := (i, Engine.now eng) :: !finished)
  done;
  Engine.run eng;
  check_no_failures eng;
  let times = List.rev_map snd !finished in
  Alcotest.(check (list int))
    "two waves on two cores"
    [ Time.ms 10; Time.ms 10; Time.ms 20; Time.ms 20 ]
    (List.sort compare times)

let test_cores_zero_work () =
  let eng = Engine.create () in
  let pool = Cores.create eng 1 in
  Engine.spawn eng ~name:"w" (fun () -> Cores.work pool 0);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "no time passes" 0 (Engine.now eng)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "sim.pheap",
      [
        Alcotest.test_case "ordering" `Quick test_pheap_order;
        qcheck prop_pheap_sorted;
        qcheck prop_pheap_remove;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        qcheck prop_rng_int_bounds;
        qcheck prop_rng_shuffle_permutes;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "timer order" `Quick test_timers_fire_in_order;
        Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
        Alcotest.test_case "thread sleep" `Quick test_thread_sleep;
        Alcotest.test_case "suspend/wake" `Quick test_suspend_wake;
        Alcotest.test_case "waker idempotent" `Quick test_waker_idempotent;
        Alcotest.test_case "kill group" `Quick test_kill_group;
        Alcotest.test_case "timer cancel" `Quick test_timer_cancel;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "step_until returns on a drained engine" `Quick test_step_until_drained;
        Alcotest.test_case "spawn inherits group" `Quick test_spawn_inherits_group;
        Alcotest.test_case "failure recorded" `Quick test_failure_recorded;
        Alcotest.test_case "event limit" `Quick test_limit;
        Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
        qcheck prop_engine_deterministic;
        Alcotest.test_case "heap before ready at one instant" `Quick
          test_tiers_heap_before_ready;
        qcheck prop_engine_matches_reference;
        Alcotest.test_case "spinner batching exercised" `Quick test_spin_batching_exercised;
        Alcotest.test_case "spinner limit exact" `Quick test_spin_limit_exact;
      ] );
    ( "sim.cores",
      [
        Alcotest.test_case "parallel" `Quick test_cores_parallel;
        Alcotest.test_case "queueing" `Quick test_cores_queueing;
        Alcotest.test_case "zero work" `Quick test_cores_zero_work;
      ] );
  ]
