(* What a replica stores per decision: the record arena as a round-trip
   property, WAL torn-tail recovery as a property over random accept
   batches, commit markers and crash points, and the words each WAL
   record and each log entry costs. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Arena = Crane_storage.Arena
module Paxos = Crane_paxos.Paxos
module Log_record = Crane_paxos.Log_record
module Event = Crane_core.Event

(* A replica recovered from [wal] in a fresh engine: [Paxos.create]
   replays the WAL. *)
let recover wal =
  let eng = Engine.create () in
  Paxos.create ~fabric:(Fabric.create eng (Rng.create 1)) ~rng:(Rng.create 2) ~wal
    ~members:[ "n1" ] ~node:"n1" ~group:(Engine.new_group eng) ()

(* Records from empty to several chunks long, with tags of one to nine
   varint bytes, read back by locator and in insertion order. *)
let prop_arena_round_trip =
  QCheck.Test.make ~name:"arena records round-trip by locator and in order" ~count:100
    QCheck.(
      list_of_size Gen.(0 -- 30)
        (pair (oneof [ small_nat; int_bound max_int ])
           (string_gen_of_size
              Gen.(frequency [ (20, 0 -- 40); (4, 400 -- 1500); (1, 65_000 -- 140_000) ])
              Gen.char)))
    (fun records ->
      let a = Arena.create () in
      let locs = List.map (fun (tag, s) -> Arena.add a ~tag s) records in
      let seen = ref [] in
      Arena.iter a (fun tag s -> seen := (tag, s) :: !seen);
      List.for_all2
        (fun loc (tag, s) ->
          Arena.get a loc = s
          && Arena.tag a loc = tag
          && Arena.has_prefix a loc (String.sub s 0 (String.length s / 2))
          && not (Arena.has_prefix a loc (s ^ "x")))
        locs records
      && List.rev !seen = records)

(* Each step is one group append of accepts for the next indices,
   optionally followed by a commit marker for an index drawn from all
   submitted so far, which may run ahead of the stable accepts. *)
let arbitrary_history =
  QCheck.(
    pair
      (list_of_size Gen.(1 -- 12)
         (pair (list_of_size Gen.(1 -- 4) (string_gen_of_size Gen.(0 -- 40) Gen.char))
            (option small_nat)))
      (int_bound 300))

let prop_wal_torn_tail_recovery =
  QCheck.Test.make ~name:"wal torn-tail recovery keeps exactly the intact prefix" ~count:300
    arbitrary_history (fun (steps, crash_us) ->
      let eng = Engine.create () in
      let wal = Wal.create eng ~name:"n1" in
      let last = ref 0 in
      (* Every record submitted, oldest first, with the decision it
         carries: [`Value v] for an accept, [`Mark i] for a marker. *)
      let submitted =
        List.concat_map
          (fun (values, mark) ->
            let accepts =
              List.map
                (fun v ->
                  incr last;
                  (Log_record.encode (Log_record.Accept (1, !last, v)), `Value v))
                values
            in
            Wal.append_async wal (List.map fst accepts) ignore;
            match mark with
            | None -> accepts
            | Some m ->
              let marker = Log_record.encode (Log_record.Commit (1 + (m mod !last))) in
              Wal.append_async wal [ marker ] ignore;
              accepts @ [ (marker, `Mark (1 + (m mod !last))) ])
          steps
      in
      Engine.run ~until:(Time.us crash_us) eng;
      ignore (Wal.crash_torn_tail wal);
      Engine.run eng;
      let entries = Wal.entries wal in
      let stable = List.length (Wal.records wal) in
      let intact = List.filteri (fun i _ -> i < stable) submitted in
      let values = List.filter_map (function _, `Value v -> Some v | _ -> None) intact in
      let mark = List.fold_left (fun m -> function _, `Mark i -> max m i | _ -> m) 0 intact in
      let committed = min mark (List.length values) in
      (* A recovery scan that sees torn bytes as data (no torn flag, as on
         a real device) must reject them by length alone. *)
      let flagless = Wal.create eng ~name:"copy" in
      Wal.append_async flagless (List.map (fun e -> e.Wal.data) entries) ignore;
      Engine.run eng;
      let recovered_ok w =
        let p = recover w in
        Paxos.committed p = committed
        && Paxos.get_committed_range p ~lo:1 ~hi:committed
           = List.filteri (fun i _ -> i < committed) values
        && (Paxos.stats p).log_resident = List.length values
        && Paxos.pending p = List.length values - committed
      in
      Wal.records wal = List.map fst intact
      && List.for_all
           (fun e ->
             (not e.Wal.torn)
             || match Log_record.decode e.Wal.data with
                | _ -> false
                | exception _ -> true)
           entries
      && recovered_ok wal && recovered_ok flagless)

(* A ledger PUT as the proxy encodes it. *)
let put i = Event.encode (Event.Send { conn = i; payload = Printf.sprintf "PUT id%06d\n" i })

(* One replica, one value per round: after [rounds] rounds the WAL holds
   an accept and a commit marker per round and the log one entry each.
   The WAL and the replica both reach the engine and so each other, so
   the WAL's words are measured on a copy that holds the same records on
   an engine of its own; the rest of the replica's growth is the log's.
   Array slack and unused arena chunk space count. *)
let test_footprint () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"n1" in
  let p =
    Paxos.create ~fabric:(Fabric.create eng (Rng.create 1)) ~rng:(Rng.create 2) ~wal
      ~members:[ "n1" ] ~node:"n1" ~group:(Engine.new_group eng) ()
  in
  Paxos.start p ();
  let rounds = 10_000 in
  let words () = Obj.reachable_words (Obj.repr p) in
  let wal_words () =
    let eng = Engine.create () in
    let copy = Wal.create eng ~name:"copy" in
    let empty = Obj.reachable_words (Obj.repr copy) in
    List.iter
      (fun r ->
        Wal.append_async copy [ r ] ignore;
        Engine.run eng)
      (Wal.records wal);
    Obj.reachable_words (Obj.repr copy) - empty
  in
  let before = words () - wal_words () in
  Engine.spawn eng ~name:"client" (fun () ->
      for i = 1 to rounds do
        ignore (Paxos.submit p [ put i ]);
        Engine.sleep eng (Time.us 50)
      done);
  Engine.run ~until:(Time.ms 600) eng;
  Alcotest.(check int) "every round committed" rounds (Paxos.committed p);
  Alcotest.(check int) "an accept and a marker per round" (2 * rounds) (Wal.length wal);
  let wal_w = wal_words () in
  let log = words () - wal_w - before in
  let per_record = float wal_w /. float (2 * rounds)
  and per_entry = float log /. float rounds in
  if per_record > 3.0 then Alcotest.failf "%.2f words per WAL record (bound 3)" per_record;
  if per_entry > 5.0 then Alcotest.failf "%.2f words per log entry (bound 5)" per_entry;
  (* Compacting to the midpoint drops half the entries and sizes the log
     and its arena for the other half. *)
  Paxos.offer_snapshot p ~index:(rounds / 2) ~blob:"snapshot";
  Engine.run ~until:(Time.ms 700) eng;
  Alcotest.(check int) "compacted to the midpoint" (rounds / 2) (Paxos.base p);
  Alcotest.(check int) "half the entries resident" (rounds / 2) (Paxos.stats p).log_resident;
  let kept = float (words () - wal_words () - before) /. float log in
  if kept > 0.55 then Alcotest.failf "compaction kept %.0f%% of the log's words" (100. *. kept)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "storage.records",
      [
        qcheck prop_arena_round_trip;
        qcheck prop_wal_torn_tail_recovery;
        Alcotest.test_case "words per WAL record and log entry" `Quick test_footprint;
      ] );
  ]
