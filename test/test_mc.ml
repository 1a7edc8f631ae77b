(* Tests for Crane-MC: the Wing–Gong linearizability checker on known
   histories (including bounded-stale backup reads), the certifier's
   vacuous verdict on window-free traces, and the schedule explorer
   itself — clean configs explore to their bound with no violation, DPOR
   prunes against the naive enumeration, and both reintroduced paxos
   bugs are killed with a counterexample that replays. *)

module Mc = Crane_analysis.Mc
module Linearize = Crane_analysis.Linearize
module Certifier = Crane_analysis.Certifier

let contains s ~sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ev who op mode inv resp res =
  { Linearize.who; op; mode; inv; resp; res }

let appd ?(mode = Linearize.Strict) who id inv resp =
  ev who (Linearize.Append id) mode inv (Some resp) (Some Linearize.Ack)

let get ?(mode = Linearize.Strict) who ids inv resp =
  ev who Linearize.Get mode inv (Some resp) (Some (Linearize.Ids ids))

let check_linear history =
  match Linearize.check history with
  | Linearize.Linear order -> order
  | Linearize.Violation m -> Alcotest.failf "expected linearizable, got: %s" m

let check_violation history =
  match Linearize.check history with
  | Linearize.Violation m -> m
  | Linearize.Linear order ->
    Alcotest.failf "expected a violation, got linear order [%s]"
      (String.concat " " order)

(* ------------------------------------------------------------------ *)
(* Linearizability primitives *)

(* Two overlapping appends can linearize in whichever order matches the
   read that observed them both. *)
let test_linearize_ok () =
  let order =
    check_linear
      [
        appd "c1" "a" 0 10;
        appd "c2" "b" 5 15;
        get "c1" [ "b"; "a" ] 20 30;
      ]
  in
  Alcotest.(check (list string)) "read's order wins" [ "b"; "a" ] order

(* Real-time order: an append acked before the read was invoked must be
   visible to it.  A strict read returning [] is a lost write. *)
let test_linearize_realtime_violation () =
  let m = check_violation [ appd "c1" "a" 0 10; get "c1" [] 20 30 ] in
  Alcotest.(check bool) "diagnostic mentions the op count" true
    (String.length m > 0)

(* An append whose response never arrived is pending: the checker may
   place it (the read saw it) or drop it entirely — both must pass. *)
let test_linearize_pending_append () =
  let pending id inv =
    ev "c1" (Linearize.Append id) Linearize.Strict inv None None
  in
  let seen =
    check_linear [ pending "a" 0; get "c2" [ "a" ] 20 30 ]
  in
  Alcotest.(check (list string)) "placed before the read" [ "a" ] seen;
  let dropped = check_linear [ pending "a" 0; get "c2" [] 20 30 ] in
  Alcotest.(check (list string)) "droppable" [] dropped

(* A backup read declaring staleness <= 1 may miss the single most
   recent acked write... *)
let test_linearize_stale_within_bound () =
  ignore
    (check_linear
       [
         appd "c1" "a" 0 10;
         appd "c1" "b" 20 30;
         get ~mode:(Linearize.Stale 1) "c2" [ "a" ] 40 45;
       ])

(* ...but missing two writes acked before it began exceeds the declared
   bound and must be rejected. *)
let test_linearize_stale_over_bound () =
  let m =
    check_violation
      [
        appd "c1" "a" 0 10;
        appd "c1" "b" 20 30;
        get ~mode:(Linearize.Stale 1) "c2" [] 40 45;
      ]
  in
  Alcotest.(check bool) "names the staleness bound" true
    (contains m ~sub:"staleness <= 1")

(* A stale read must still be a prefix of the write order: observing the
   second write without the first is reordering, not staleness. *)
let test_linearize_stale_non_prefix () =
  let m =
    check_violation
      [
        appd "c1" "a" 0 10;
        appd "c1" "b" 20 30;
        get ~mode:(Linearize.Stale 5) "c2" [ "b" ] 40 45;
      ]
  in
  Alcotest.(check bool) "names the prefix rule" true
    (contains m ~sub:"prefix")

(* ------------------------------------------------------------------ *)
(* Certifier: vacuous verdict *)

(* A trace with no execute windows checked nothing; the verdict must say
   so rather than claim conflict-serializability. *)
let test_certifier_vacuous () =
  let r = Certifier.check_events ~resolve_node:(fun e -> e.Crane_trace.Trace.node) [] in
  Alcotest.(check int) "no windows" 0 r.Certifier.windows;
  Alcotest.(check bool) "no violations either" true (r.Certifier.violations = []);
  Alcotest.(check bool) "verdict is vacuous" true
    (contains (Certifier.render r) ~sub:"vacuously certified")

(* ------------------------------------------------------------------ *)
(* Schedule exploration *)

let tiny max_branch =
  {
    Mc.default with
    Mc.clients = 1;
    writes = 1;
    reads = 0;
    max_branch;
    max_runs = 500;
  }

(* The clean single-client config explores its whole bounded tree with
   no invariant violation. *)
let test_mc_clean_explores_to_bound () =
  let o = Mc.explore (tiny 4) in
  Alcotest.(check bool) "complete" true o.Mc.o_complete;
  (match o.Mc.o_violation with
  | None -> ()
  | Some v -> Alcotest.failf "clean config violated %s" v.Mc.v_invariant);
  Alcotest.(check bool) "explored more than one schedule" true (o.Mc.o_runs > 1)

(* DPOR must visit strictly fewer schedules than the naive enumeration
   of the same tree, and agree with it on the (absence of a) verdict. *)
let test_mc_dpor_prunes () =
  let dpor = Mc.explore (tiny 4) in
  let naive = Mc.explore { (tiny 4) with Mc.dpor = false } in
  Alcotest.(check bool) "both complete" true
    (dpor.Mc.o_complete && naive.Mc.o_complete);
  Alcotest.(check bool) "both clean" true
    (dpor.Mc.o_violation = None && naive.Mc.o_violation = None);
  Alcotest.(check bool)
    (Printf.sprintf "dpor (%d) prunes naive (%d)" dpor.Mc.o_runs naive.Mc.o_runs)
    true
    (dpor.Mc.o_runs < naive.Mc.o_runs)

(* Each reintroduced paxos bug must be found within its preset's bounds,
   and the recorded counterexample must replay to the same invariant
   violation with the fault on — and to none with the fault off (the
   explorer only accepts discriminating counterexamples). *)
let mutation_killed m =
  let path = Filename.temp_file ("crane_mc_" ^ Mc.mutation_name m) ".trace" in
  let k = Mc.check ~trace:path (Mc.mutation_preset m) in
  Alcotest.(check bool) "killed, and the written trace replays to it" true
    (k.Mc.k_replay = Some Mc.Reproduced);
  let _, _, fixed_verdict = Mc.replay_with ~mutation:Mc.No_mutation path in
  Alcotest.(check bool) "fixed code is clean on the same schedule" true
    (fixed_verdict = None);
  Sys.remove path

let test_mc_kills_hole_backfill () = mutation_killed Mc.Hole_backfill
let test_mc_kills_dup_accept () = mutation_killed Mc.Dup_accept

let suite =
  [
    ( "mc",
      [
        Alcotest.test_case "linearize: interleaved appends" `Quick
          test_linearize_ok;
        Alcotest.test_case "linearize: lost write rejected" `Quick
          test_linearize_realtime_violation;
        Alcotest.test_case "linearize: pending append place-or-drop" `Quick
          test_linearize_pending_append;
        Alcotest.test_case "linearize: stale read within bound" `Quick
          test_linearize_stale_within_bound;
        Alcotest.test_case "linearize: stale read over bound rejected" `Quick
          test_linearize_stale_over_bound;
        Alcotest.test_case "linearize: stale read must be a prefix" `Quick
          test_linearize_stale_non_prefix;
        Alcotest.test_case "certifier: vacuous without windows" `Quick
          test_certifier_vacuous;
        Alcotest.test_case "explore: clean config to bound" `Slow
          test_mc_clean_explores_to_bound;
        Alcotest.test_case "explore: dpor prunes naive" `Slow
          test_mc_dpor_prunes;
        Alcotest.test_case "mutation: hole-backfill killed" `Slow
          test_mc_kills_hole_backfill;
        Alcotest.test_case "mutation: dup-accept killed" `Slow
          test_mc_kills_dup_accept;
      ] );
  ]
