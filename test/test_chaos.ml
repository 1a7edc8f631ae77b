(* Tests for the deterministic chaos harness: every built-in scenario must
   pass its invariants, same-seed runs must produce byte-identical
   reports, and the fault primitives it leans on (torn WAL tails, loadgen
   retries, output-log suffix comparison) behave as specified. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Api = Crane_core.Api
module Instance = Crane_core.Instance
module Standalone = Crane_core.Standalone
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Loadgen = Crane_workload.Loadgen
module Chaos = Crane_chaos.Chaos
module Ledger = Crane_chaos.Ledger
module Invariants = Crane_chaos.Invariants

let violations r =
  List.filter_map
    (fun (name, v) -> Option.map (fun d -> name ^ ": " ^ d) v)
    r.Chaos.invariants

(* Every built-in scenario passes every invariant.  This is the
   acceptance bar for the harness: each fault kind (crash primary, crash
   backup, torn WAL, symmetric and asymmetric partition, loss window,
   latency spike, probabilistic mix) plus the composed
   partition-heal-crash-restart scenario. *)
let test_scenario name () =
  match Chaos.find_scenario name with
  | None -> Alcotest.failf "unknown scenario %s" name
  | Some s ->
    let r = Chaos.run ~seed:13 s in
    Alcotest.(check (list string))
      (name ^ " invariants hold") [] (violations r)

(* Two runs with the same seed render byte-identical reports; a different
   seed must not (jitter shifts the virtual-time stamps). *)
let test_determinism () =
  let s = Option.get (Chaos.find_scenario "composed") in
  let a = Chaos.render_report (Chaos.run ~seed:5 s) in
  let b = Chaos.render_report (Chaos.run ~seed:5 s) in
  Alcotest.(check string) "same seed, same bytes" a b;
  let c = Chaos.render_report (Chaos.run ~seed:6 s) in
  Alcotest.(check bool) "different seed differs" true (a <> c)

(* The probabilistic schedule is a pure function of the seed too. *)
let test_random_determinism () =
  let s = Option.get (Chaos.find_scenario "random") in
  let a = Chaos.render_report (Chaos.run ~seed:21 s) in
  let b = Chaos.render_report (Chaos.run ~seed:21 s) in
  Alcotest.(check string) "random schedule replays" a b

(* A crash mid-append leaves exactly one torn partial tail; intact
   records survive, in-flight continuations never fire. *)
let test_wal_torn_tail () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  let stable = ref [] in
  Wal.append_async wal [ "alpha" ] (fun () -> stable := "alpha" :: !stable);
  Engine.run eng;
  Wal.append_async wal [ "beta" ] (fun () -> stable := "beta" :: !stable);
  Wal.append_async wal [ "gamma" ] (fun () -> stable := "gamma" :: !stable);
  (* crash before the writes complete *)
  Alcotest.(check bool) "torn tail produced" true (Wal.crash_torn_tail wal);
  Engine.run eng;
  Alcotest.(check (list string)) "only alpha stable" [ "alpha" ] (List.rev !stable);
  Alcotest.(check (list string)) "intact records" [ "alpha" ] (Wal.records wal);
  (match Wal.entries wal with
  | [ a; t ] ->
    Alcotest.(check bool) "first intact" false a.Wal.torn;
    Alcotest.(check bool) "tail torn" true t.Wal.torn;
    Alcotest.(check string) "tail is a beta prefix" (String.sub "beta" 0 2) t.Wal.data
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  Alcotest.(check bool) "no second tail without inflight writes" false
    (Wal.crash_torn_tail wal)

(* End-to-end torn-tail recovery: crash the primary mid-append, restart
   it, and check recovery discarded the torn record, clamped to the
   stable prefix, and refilled the gap through catch-up.  The load runs
   past the restart, so client writes commit while the old primary is
   down and leave it a real gap. *)
let test_torn_recovery_refill () =
  let cluster =
    Cluster.create ~seed:17 ~cfg:Chaos.chaos_config ~server:Ledger.server ()
  in
  Cluster.start cluster;
  let eng = Cluster.engine cluster in
  Cluster.run ~until:(Time.ms 200) cluster;
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"load" ~think:(Time.ms 20) ~retries:6
      ~retry_backoff:(Time.ms 100) ~clients:2 ~requests:160
      ~request:(Ledger.request ledger) target
  in
  Engine.at eng (Time.ms 600) (fun () ->
      (* Make sure an append is mid-flight at the crash instant so the
         crash deterministically leaves a torn tail (the WAL write window
         is only 15us wide otherwise). *)
      Wal.append_async (Hashtbl.find cluster.Cluster.wals "replica1") [ "mid-write" ]
        (fun () -> ());
      Cluster.kill ~wal_torn:true cluster "replica1");
  Engine.at eng (Time.ms 1800) (fun () -> ignore (Cluster.restart cluster "replica1"));
  Loadgen.drive ~timeout:(Time.sec 60) target handle;
  Cluster.run ~until:(Engine.now eng + Time.sec 3) cluster;
  Cluster.check_failures cluster;
  let r1 =
    match Cluster.instance cluster "replica1" with
    | Some i -> i
    | None -> Alcotest.fail "replica1 did not restart"
  in
  let p1 = r1.Instance.paxos in
  Alcotest.(check bool) "torn record discarded" true ((Paxos.stats p1).Paxos.wal_torn_discarded >= 1);
  Alcotest.(check bool) "catch-up refilled the gap" true ((Paxos.stats p1).Paxos.catchup_installed > 0);
  let committed = List.map (fun (_, i) -> Paxos.committed i.Instance.paxos)
      (Cluster.instances cluster) in
  (match committed with
  | c :: rest -> List.iter (Alcotest.(check int) "committed converged" c) rest
  | [] -> Alcotest.fail "no instances");
  let r = handle.Loadgen.collect () in
  Alcotest.(check int) "no hard client errors" 0 r.Loadgen.errors

(* The shared oracle on a short healthy ledger run: every check passes.
   Then the cheap failures are provoked against the same cluster: an
   acked id no replica ever wrote, and a reference log holding a wrong
   value at a committed index. *)
let test_oracle () =
  let cluster =
    Cluster.create ~seed:3 ~cfg:Chaos.chaos_config ~server:Ledger.server ()
  in
  Cluster.start cluster;
  let eng = Cluster.engine cluster in
  Cluster.run ~until:(Time.ms 200) cluster;
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"load" ~think:(Time.ms 20) ~retries:6
      ~retry_backoff:(Time.ms 100) ~clients:2 ~requests:30
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 60) target handle;
  Cluster.run ~until:(Engine.now eng + Time.sec 1) cluster;
  let oracle = Invariants.create () in
  let sampled = ref [] in
  let violate inv detail = sampled := (inv ^ ": " ^ detail) :: !sampled in
  Invariants.sample oracle cluster ~violate;
  Alcotest.(check (list string)) "sample clean" [] !sampled;
  let acked = Ledger.acked_ids ledger in
  Alcotest.(check bool) "writes acked" true (List.length acked >= 30);
  let verdicts =
    [
      Invariants.committed_prefix oracle cluster;
      Invariants.state_convergence cluster;
      Invariants.acked_durability cluster ~acked;
      Invariants.epoch_agreement cluster;
      Invariants.thread_failures cluster;
    ]
  in
  List.iter
    (fun (name, v) -> Alcotest.(check (option string)) (name ^ " holds") None v)
    verdicts;
  Alcotest.(check bool) "a replica may be killed" true
    (Invariants.quorum_safe_to_kill cluster);
  (match Invariants.acked_durability cluster ~acked:("never-written" :: acked) with
  | "acked-durability", Some d ->
    Alcotest.(check bool) ("names the lost id: " ^ d) true
      (String.starts_with ~prefix:"acked never-written missing on " d)
  | name, v ->
    Alcotest.failf "lost ack not caught: %s %s" name (Option.value v ~default:"ok"));
  let node, inst = List.hd (Cluster.instances cluster) in
  let idx = Paxos.committed inst.Instance.paxos in
  Alcotest.(check bool) "last commit still resident" true
    (idx > Paxos.base inst.Instance.paxos);
  Hashtbl.replace oracle.Invariants.reference_log idx "wrong value";
  (match Invariants.committed_prefix oracle cluster with
  | "committed-prefix-agreement", Some d ->
    Alcotest.(check string) "recheck names the divergence"
      (Printf.sprintf "%s diverged at index %d" node idx) d
  | name, v ->
    Alcotest.failf "wrong committed value not caught: %s %s" name
      (Option.value v ~default:"ok"));
  Hashtbl.reset oracle.Invariants.watermarks;
  Invariants.sample oracle cluster ~violate;
  (* Every replica still holding [idx] in its committed, resident range
     disagrees with the tampered reference. *)
  let holders =
    List.filter_map
      (fun (n, i) ->
        let p = i.Instance.paxos in
        if Paxos.base p < idx && idx <= Paxos.committed p then
          Some (Printf.sprintf "committed-prefix-agreement: %s disagrees at index %d" n idx)
        else None)
      (Cluster.instances cluster)
  in
  Alcotest.(check bool) "the tampered index is held" true (holders <> []);
  Alcotest.(check (list string)) "sample names the divergence on every holder"
    (List.sort compare holders)
    (List.sort compare
       (List.filter
          (fun v -> String.ends_with ~suffix:(Printf.sprintf " %d" idx) v)
          !sampled))

(* Loadgen retry accounting: transient failures are retried with
   deterministic backoff and counted separately from hard errors. *)
let test_loadgen_retries () =
  let eng = Engine.create () in
  let fabric = Crane_net.Fabric.create eng (Crane_sim.Rng.create 3) in
  let target =
    { Target.eng; world = Crane_socket.Sock.world fabric; port = 0;
      pick_node = (fun () -> "x"); fallbacks = (fun () -> [ "x" ]) }
  in
  (* fails twice, then succeeds — per request *)
  let tries = Hashtbl.create 8 in
  let flaky _target ~from =
    let n = try Hashtbl.find tries from with Not_found -> 0 in
    Hashtbl.replace tries from (n + 1);
    if n mod 3 < 2 then None else Some "ok"
  in
  let h = Loadgen.run ~retries:3 ~retry_backoff:(Time.ms 10) ~clients:1 ~requests:4
      ~request:flaky target in
  Engine.run eng;
  let r = h.Loadgen.collect () in
  Alcotest.(check int) "all succeed after retries" 4 (List.length r.Loadgen.latencies);
  Alcotest.(check int) "retries counted" 8 r.Loadgen.retries;
  Alcotest.(check int) "no hard errors" 0 r.Loadgen.errors;
  (* without retries the same flakiness is a hard error *)
  Hashtbl.reset tries;
  let h0 = Loadgen.run ~clients:1 ~requests:3 ~request:flaky target in
  Engine.run eng;
  let r0 = h0.Loadgen.collect () in
  Alcotest.(check int) "hard errors without retries" 2 r0.Loadgen.errors;
  Alcotest.(check int) "no retries by default" 0 r0.Loadgen.retries

(* Output_log.is_suffix: the restarted-replica comparison. *)
let test_output_suffix () =
  let full = Output_log.create () and tail = Output_log.create () in
  Output_log.record full ~conn:1 "a";
  Output_log.record full ~conn:1 "b";
  Output_log.record full ~conn:2 "c";
  Output_log.record tail ~conn:1 "b";
  Output_log.record tail ~conn:2 "c";
  Alcotest.(check bool) "tail is a suffix" true (Output_log.is_suffix ~of_:full tail);
  Alcotest.(check bool) "full is not a suffix of tail" false
    (Output_log.is_suffix ~of_:tail full);
  Alcotest.(check bool) "equal logs are suffixes" true
    (Output_log.is_suffix ~of_:full full);
  let diverged = Output_log.create () in
  Output_log.record diverged ~conn:1 "b";
  Output_log.record diverged ~conn:2 "X";
  Alcotest.(check bool) "diverged tail rejected" false
    (Output_log.is_suffix ~of_:full diverged)

(* The ledger's cached read reply: one server, driven through PUTs
   interleaved with consensus-path GETs, read-hook GETs, a GET repeated
   with no PUT between, and [load_state].  Every reply and [state_of]
   must equal a rendering built here from the ids sent, so a cache that
   misses an invalidation shows up as a stale reply. *)
let test_ledger_read_rendering () =
  let sa = Standalone.boot ~mode:Standalone.Native ~server:Ledger.server () in
  let h = sa.Standalone.handle in
  let target = Target.standalone sa ~port:80 in
  let sent = ref [] (* oldest first *) in
  let observed = ref [] (* (what, expected, got), newest first *) in
  let see what want got = observed := (what, want, got) :: !observed in
  let check what =
    let state = String.concat "," !sent in
    let want = "IDS " ^ state ^ "\n" in
    let got r = Option.value r ~default:"<none>" in
    see (what ^ ": consensus GET") want
      (got (Ledger.consensus_get target ~from:"tester"));
    let hook = h.Api.read "GET\n" in
    see (what ^ ": read hook") want (got hook);
    let again = h.Api.read "GET\n" in
    see (what ^ ": repeated read hook") want (got again);
    see (what ^ ": repeat shares one rendering") "shared"
      (match (hook, again) with
      | Some a, Some b when a == b -> "shared"
      | _ -> "rebuilt");
    see (what ^ ": state_of") state (h.Api.state_of ())
  in
  let put id =
    match
      Option.bind (Target.connect target ~from:"tester")
        (fun c -> Ledger.put ~timeout:(Time.sec 5) c id)
    with
    | Some _ -> sent := !sent @ [ id ]
    | None -> see ("PUT " ^ id) "acked" "not acked"
  in
  let load s ids =
    h.Api.load_state s;
    sent := ids
  in
  let finished = ref false in
  Engine.spawn (Standalone.engine sa) ~name:"ledger-tester" (fun () ->
      check "empty ledger";
      put "a";
      check "one id";
      put "b7";
      put "c";
      check "three ids";
      load "x,y" [ "x"; "y" ];
      check "after load_state";
      put "z";
      check "PUT after load_state";
      load "" [];
      check "after loading the empty ledger";
      put "q";
      check "PUT after the empty load";
      finished := true);
  Engine.run ~until:(Time.sec 30) (Standalone.engine sa);
  Standalone.check_failures sa;
  Alcotest.(check bool) "script finished" true !finished;
  List.iter
    (fun (what, want, got) -> Alcotest.(check string) what want got)
    (List.rev !observed)

let suite =
  [
    ( "chaos",
      List.map
        (fun s -> Alcotest.test_case s.Chaos.name `Slow (test_scenario s.Chaos.name))
        Chaos.scenarios
      @ [
          Alcotest.test_case "same-seed reports byte-identical" `Slow test_determinism;
          Alcotest.test_case "probabilistic schedule deterministic" `Slow
            test_random_determinism;
          Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "torn-tail recovery + catch-up refill" `Slow
            test_torn_recovery_refill;
          Alcotest.test_case "shared oracle: healthy run passes, faults caught" `Quick
            test_oracle;
          Alcotest.test_case "loadgen retry accounting" `Quick test_loadgen_retries;
          Alcotest.test_case "output-log suffix" `Quick test_output_suffix;
          Alcotest.test_case "ledger read rendering and cache invalidation" `Quick
            test_ledger_read_rendering;
        ] );
  ]
