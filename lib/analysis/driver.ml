(** The analyze driver: run every bundled server (plus the seeded-race
    target) under the native and PARROT runtimes with the happens-before
    monitor attached, certify determinism by replay, and render one
    deterministic report.

    Per (target, runtime) the driver performs three monitored runs:
    - seed [s] twice: the {e full} digests (every event, timestamps
      included) must match byte for byte — the simulator's replay
      guarantee; a mismatch is always a harness bug;
    - seed [s + 17]: the {e schedule} digests (synchronization/memory
      order only, no timestamps) are compared across the two seeds.  A
      match certifies the runtime schedule-independent of the seed —
      true for DMT on compute-only programs, false under native Pthreads
      whose RNG-drawn wake order lets detected races explain the
      divergence.  Socket-driven targets under PARROT alone may also
      diverge: network arrival order re-enters through the blocking-call
      path, which is the paper's argument for CRANE's PAXOS admission.

    Client workloads use fixed per-client RNG seeds, so the logical
    inputs are identical across analyzer seeds; only schedule and
    network timing vary. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Trace = Crane_trace.Trace
module Api = Crane_core.Api
module Standalone = Crane_core.Standalone
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Table = Crane_report.Table

let mode_name = function Standalone.Native -> "native" | Standalone.Parrot -> "parrot"

type spec = {
  s_name : string;
  s_server : unit -> Api.server;
  s_port : int option;  (** None: no socket workload (racy-counter) *)
  s_drive : Engine.t -> Target.t -> unit;
  s_horizon : Time.t;
  s_expect_clean : bool;
}

(* Scaled-down app configs: enough traffic to exercise every lock and
   cell, small enough that the 2 runtimes x 3 replays stay fast. *)

let http_client ~stagger eng target n =
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "ab%d" i) (fun () ->
        Engine.sleep eng (stagger * i);
        ignore (Clients.apachebench target ~from:(Printf.sprintf "ab%d" i)))
  done

let apache_spec =
  {
    s_name = "apache";
    s_server =
      (fun () ->
        Crane_apps.Apache.server
          ~cfg:
            {
              Crane_apps.Apache.default_config with
              nworkers = 2;
              php_segments = 2;
              segment_cost = Time.us 500;
            }
          ());
    s_port = Some 80;
    s_drive = (fun eng target -> http_client ~stagger:(Time.us 40) eng target 3);
    s_horizon = Time.ms 300;
    s_expect_clean = true;
  }

let mongoose_spec =
  {
    s_name = "mongoose";
    s_server =
      (fun () ->
        Crane_apps.Mongoose.server
          ~cfg:
            {
              Crane_apps.Mongoose.default_config with
              nworkers = 2;
              php_segments = 2;
              segment_cost = Time.us 400;
            }
          ());
    s_port = Some 80;
    s_drive = (fun eng target -> http_client ~stagger:(Time.us 55) eng target 3);
    s_horizon = Time.ms 300;
    s_expect_clean = true;
  }

let clamav_spec =
  {
    s_name = "clamav";
    s_server =
      (fun () ->
        Crane_apps.Clamav.server
          ~cfg:
            {
              Crane_apps.Clamav.default_config with
              nworkers = 2;
              subdirs = 2;
              files_per_subdir = 2;
              file_bytes = 1_200;
              mem_bytes = 100_000;
              infected = [ (1, 1) ];
            }
          ());
    s_port = Some 3310;
    s_drive =
      (fun eng target ->
        for i = 1 to 2 do
          Engine.spawn eng ~name:(Printf.sprintf "clamscan%d" i) (fun () ->
              Engine.sleep eng (Time.us (60 * i));
              ignore (Clients.clamdscan ~dirs:2 target ~from:(Printf.sprintf "clamscan%d" i)))
        done);
    s_horizon = Time.ms 300;
    s_expect_clean = true;
  }

let mysql_spec =
  {
    s_name = "mysql";
    s_server =
      (fun () ->
        Crane_apps.Mysql.server
          ~cfg:
            {
              Crane_apps.Mysql.default_config with
              nworkers = 2;
              ntables = 2;
              rows_per_table = 100;
              db_file_bytes = 10_000;
              mem_bytes = 100_000;
            }
          ());
    s_port = Some 3306;
    s_drive =
      (fun eng target ->
        for i = 1 to 3 do
          Engine.spawn eng ~name:(Printf.sprintf "sysbench%d" i) (fun () ->
              Engine.sleep eng (Time.us (45 * i));
              let rng = Rng.create (1000 + (13 * i)) in
              ignore
                (Clients.sysbench ~rng ~ntables:2 ~rows:100 target
                   ~from:(Printf.sprintf "sysbench%d" i)))
        done);
    s_horizon = Time.ms 300;
    s_expect_clean = true;
  }

let mediatomb_spec =
  {
    s_name = "mediatomb";
    s_server =
      (fun () ->
        Crane_apps.Mediatomb.server
          ~cfg:
            {
              Crane_apps.Mediatomb.default_config with
              nworkers = 2;
              frames = 16;
              frame_cost = Time.us 100;
              encoder_threads = 2;
            }
          ());
    s_port = Some 49152;
    s_drive =
      (fun eng target ->
        Engine.spawn eng ~name:"media1" (fun () ->
            Engine.sleep eng (Time.us 80);
            ignore (Clients.mediabench target ~from:"media1")));
    s_horizon = Time.ms 300;
    s_expect_clean = true;
  }

let racy_spec =
  {
    s_name = "racy-counter";
    s_server = Targets.racy_counter;
    s_port = None;
    s_drive = (fun _ _ -> ());
    s_horizon = Time.ms 100;
    s_expect_clean = false;
  }

let specs =
  [ apache_spec; mongoose_spec; clamav_spec; mysql_spec; mediatomb_spec; racy_spec ]

let target_names = List.map (fun s -> s.s_name) specs

(* ------------------------------------------------------------------ *)

let run_one ~seed ~mode spec =
  let tr = Trace.create ~retain:false () in
  let mon = Hb.create () in
  Hb.attach mon tr;
  let sa = Standalone.boot ~seed ~mode ~server:(spec.s_server ()) ~trace:tr () in
  let eng = Standalone.engine sa in
  (match spec.s_port with
  | Some port -> spec.s_drive eng (Target.standalone sa ~port)
  | None -> ());
  Engine.run ~until:spec.s_horizon eng;
  (* Stop monitoring before harvesting: post-run state reads would look
     like unsynchronized accesses from outside the thread graph. *)
  Trace.set_enabled tr false;
  Standalone.check_failures sa;
  Hb.report mon

type outcome = {
  o_target : string;
  o_mode : string;
  o_report : Hb.report;
  o_replay_ok : bool;  (** same-seed full-digest match *)
  o_certified : bool;  (** cross-seed schedule-digest match *)
  o_expect_clean : bool;
}

let analyze_one ~seed spec mode =
  let r1 = run_one ~seed ~mode spec in
  let r2 = run_one ~seed ~mode spec in
  let r3 = run_one ~seed:(seed + 17) ~mode spec in
  {
    o_target = spec.s_name;
    o_mode = mode_name mode;
    o_report = r1;
    o_replay_ok = String.equal r1.Hb.full_digest r2.Hb.full_digest;
    o_certified = String.equal r1.Hb.schedule_digest r3.Hb.schedule_digest;
    o_expect_clean = spec.s_expect_clean;
  }

let analyze ~seed ?(targets = target_names) () =
  let selected =
    List.filter_map
      (fun name ->
        match List.find_opt (fun s -> s.s_name = name) specs with
        | Some s -> Some s
        | None -> invalid_arg (Printf.sprintf "analyze: unknown target %s" name))
      targets
  in
  List.concat_map
    (fun spec -> List.map (analyze_one ~seed spec) [ Standalone.Native; Standalone.Parrot ])
    selected

(* ------------------------------------------------------------------ *)
(* Expectations: what counts as a NEW finding (nonzero exit).

   - a same-seed replay mismatch anywhere is a harness bug;
   - targets expected clean must have zero races, inversions and
     cond-while-holding findings under both runtimes;
   - the seeded-race target must race under native, and must be both
     race-free and schedule-certified under DMT.

   Native divergence across seeds is reported, not failed: that is the
   baseline nondeterminism the paper replicates, and the detected races
   (or RNG wake order alone) explain it. *)

let problems outcomes =
  List.concat_map
    (fun o ->
      let r = o.o_report in
      let where = Printf.sprintf "%s/%s" o.o_target o.o_mode in
      let p = ref [] in
      let add msg = p := msg :: !p in
      if not o.o_replay_ok then
        add (Printf.sprintf "%s: same-seed replay digests differ (harness bug)" where);
      if o.o_expect_clean then begin
        if r.Hb.races <> [] then
          add (Printf.sprintf "%s: %d data race(s) found" where (List.length r.Hb.races));
        if r.Hb.inversions <> [] then
          add
            (Printf.sprintf "%s: %d lock-order inversion(s) found" where
               (List.length r.Hb.inversions));
        if r.Hb.cond_holds <> [] then
          add
            (Printf.sprintf "%s: %d cond-wait-while-holding-lock pattern(s)" where
               (List.length r.Hb.cond_holds))
      end
      else begin
        (* the seeded-race target *)
        (match o.o_mode with
        | "native" ->
          if r.Hb.races = [] then
            add (Printf.sprintf "%s: seeded race was NOT detected" where)
        | _ ->
          if r.Hb.races <> [] then
            add
              (Printf.sprintf "%s: %d race(s) under DMT (turn serialization broken)"
                 where (List.length r.Hb.races));
          if not o.o_certified then
            add (Printf.sprintf "%s: DMT schedule not certified deterministic" where));
        ()
      end;
      List.rev !p)
    outcomes

(* ------------------------------------------------------------------ *)
(* Rendering.  Everything below is derived from deterministic runs and
   rendered with stable iteration orders: identical seeds produce
   byte-identical report text. *)

let fmt_access (a : Hb.access) =
  Printf.sprintf "%s %s @%dns, locks [%s], after: %s" a.Hb.a_thread a.Hb.a_op a.Hb.a_ts
    (String.concat ", " a.Hb.a_locks)
    (match a.Hb.a_path with [] -> "-" | p -> String.concat " <- " p)

let render ~seed outcomes =
  let b = Buffer.create 4096 in
  let rows =
    List.map
      (fun o ->
        let r = o.o_report in
        [
          o.o_target;
          o.o_mode;
          string_of_int (List.length r.Hb.races);
          string_of_int (List.length r.Hb.inversions);
          string_of_int (List.length r.Hb.cond_holds);
          (if o.o_replay_ok then "identical" else "MISMATCH");
          (if o.o_certified then "certified" else "diverged");
        ])
      outcomes
  in
  Buffer.add_string b
    (Table.render
       ~title:(Printf.sprintf "crane-san analyze (seed %d)" seed)
       ~header:
         [ "target"; "runtime"; "races"; "inversions"; "cond-holds"; "replay"; "schedule" ]
       rows);
  List.iter
    (fun o ->
      let r = o.o_report in
      if r.Hb.races <> [] || r.Hb.inversions <> [] || r.Hb.cond_holds <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "\n%s under %s:\n" o.o_target o.o_mode);
        List.iter
          (fun (race : Hb.race) ->
            Buffer.add_string b
              (Printf.sprintf "  race [%s] on %s (loc %d)\n    1) %s\n    2) %s\n"
                 race.Hb.r_kind race.Hb.r_site race.Hb.r_loc
                 (fmt_access race.Hb.r_first)
                 (fmt_access race.Hb.r_second)))
          r.Hb.races;
        List.iter
          (fun (inv : Hb.inversion) ->
            Buffer.add_string b
              (Printf.sprintf "  lock-order cycle {%s}\n"
                 (String.concat ", " inv.Hb.i_locks));
            List.iter
              (fun (l1, l2, th) ->
                Buffer.add_string b
                  (Printf.sprintf "    %s -> %s (thread %s)\n" l1 l2 th))
              inv.Hb.i_edges)
          r.Hb.inversions;
        List.iter
          (fun (c : Hb.cond_hold) ->
            Buffer.add_string b
              (Printf.sprintf "  cond_wait(%s) while holding %s (thread %s)\n"
                 c.Hb.c_cond c.Hb.c_extra c.Hb.c_thread))
          r.Hb.cond_holds
      end)
    outcomes;
  (match problems outcomes with
  | [] -> Buffer.add_string b "\nno new findings.\n"
  | ps ->
    Buffer.add_string b "\nNEW FINDINGS:\n";
    List.iter (fun p -> Buffer.add_string b (Printf.sprintf "  %s\n" p)) ps);
  Buffer.contents b
