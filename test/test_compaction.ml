(* Tests for log compaction and snapshot-based catch-up: the crash-safe
   two-phase WAL truncation, the compaction watermark keeping every
   long-lived structure bounded, the snapshot + chunked catch-up recovery
   path, and the fixed-seed guarantee that compaction never changes
   observable outputs. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Memfs = Crane_fs.Memfs
module Container = Crane_fs.Container
module Manager = Crane_checkpoint.Manager
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Loadgen = Crane_workload.Loadgen
module Chaos = Crane_chaos.Chaos
module Ledger = Crane_chaos.Ledger

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "simulated thread %s died: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* WAL truncation *)

let test_wal_truncate_drops_prefix () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  List.iter (fun r -> Wal.append_async wal [ r ] (fun () -> ())) [ "a"; "b"; "c" ];
  Engine.run eng;
  let header = "H" in
  let finished = ref false in
  Wal.truncate_to wal ~header ~drop:(fun r -> r = "a" || r = "b") (fun () ->
      finished := true);
  Engine.run eng;
  Alcotest.(check bool) "continuation fired" true !finished;
  Alcotest.(check (list string)) "prefix gone, suffix + header intact"
    [ "c"; "H" ] (Wal.records wal);
  Alcotest.(check int) "two records dropped" 2 (Wal.dropped wal);
  Alcotest.(check int) "one truncation" 1 (Wal.truncations wal)

(* Crash window 1: before the header is durable.  The log must be
   untouched (the header may land as a torn tail), exactly as if the
   truncation never started. *)
let test_wal_truncate_crash_before_header () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  List.iter (fun r -> Wal.append_async wal [ r ] (fun () -> ())) [ "a"; "b" ];
  Engine.run eng;
  let fired = ref false in
  Wal.truncate_to wal ~header:"HH" ~drop:(fun _ -> true) (fun () -> fired := true);
  (* crash while the header append is still in flight *)
  Alcotest.(check bool) "header was mid-write" true (Wal.crash_torn_tail wal);
  Engine.run eng;
  Alcotest.(check bool) "drop never ran" false !fired;
  Alcotest.(check (list string)) "old records intact" [ "a"; "b" ] (Wal.records wal);
  Alcotest.(check int) "nothing dropped" 0 (Wal.dropped wal)

(* Crash window 2: header durable, physical drop not yet issued.  Both
   the header and the superseded records survive; recovery must treat
   them idempotently, and re-running the truncation converges. *)
let test_wal_truncate_crash_between_phases () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  List.iter (fun r -> Wal.append_async wal [ r ] (fun () -> ())) [ "a"; "b" ];
  Engine.run eng;
  let fired = ref false in
  let old_header = "H1" in
  Wal.truncate_to wal ~header:old_header ~drop:(fun _ -> true) (fun () ->
      fired := true);
  (* run just past the header's fsync (15 us) but not to the drop *)
  Engine.run ~until:(Engine.now eng + Time.us 20) eng;
  Alcotest.(check bool) "no in-flight write to tear" false (Wal.crash_torn_tail wal);
  Engine.run eng;
  Alcotest.(check bool) "drop canceled by the crash" false !fired;
  Alcotest.(check (list string)) "header AND old records both present"
    [ "a"; "b"; "H1" ] (Wal.records wal);
  (* recovery re-truncates: a fresh header supersedes everything older,
     including the orphaned one *)
  Wal.truncate_to wal ~header:"H2" ~drop:(fun _ -> true) (fun () -> ());
  Engine.run eng;
  Alcotest.(check (list string)) "re-truncation converges" [ "H2" ] (Wal.records wal);
  Alcotest.(check int) "orphans dropped" 3 (Wal.dropped wal)

(* Two truncations in flight: the second header is durable before the
   first drop runs, which then moves it two records down.  Each drop
   still finds its own header and keeps everything from it on. *)
let test_wal_truncate_overlapping () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  List.iter (fun r -> Wal.append_async wal [ r ] (fun () -> ())) [ "a"; "b" ];
  Wal.truncate_to wal ~header:"H1" ~drop:(fun _ -> true) (fun () -> ());
  Wal.append_async wal [ "c" ] (fun () -> ());
  let before_drops = ref [] in
  Wal.truncate_to wal ~header:"H2" ~drop:(fun _ -> true) (fun () -> ());
  Wal.append_async wal [ "d" ] (fun () -> before_drops := Wal.records wal);
  Engine.run eng;
  Alcotest.(check (list string)) "second header durable before the first drop"
    [ "a"; "b"; "H1"; "c"; "H2"; "d" ] !before_drops;
  Alcotest.(check (list string)) "each drop keeps its header's suffix" [ "H2"; "d" ]
    (Wal.records wal);
  Alcotest.(check int) "four records dropped" 4 (Wal.dropped wal)

(* ------------------------------------------------------------------ *)
(* Paxos-level compaction and snapshot catch-up *)

module G = Paxos_group

let compact_config ~threshold =
  {
    Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 50;
    election_timeout = Time.ms 200;
    election_jitter = Time.ms 30;
    round_retry = Time.ms 50;
    compaction_threshold = threshold;
    catchup_chunk = 16;
    lease_duration = Time.ms 100;
  }

let fold_state state v = Digest.to_hex (Digest.string (state ^ v))

(* Each node's replicated state is a chain digest of what it applied,
   replaced wholesale by an installed snapshot. *)
let add_node sim name =
  let state = ref "" in
  let n = G.add_node ~on_commit:(fun ~index:_ v -> state := fold_state !state v) sim name in
  let p = n.G.n_p in
  Paxos.set_compaction_hooks p
    { Paxos.install_snapshot =
        (fun ~index:_ blob -> state := (Marshal.from_string blob 0 : string));
      on_compact = (fun ~watermark:_ -> ()) };
  (* WAL recovery does not re-fire on_commit; rebuild the state the way a
     real instance would — restored snapshot plus resident suffix. *)
  let from =
    match Paxos.snapshot p with
    | Some (s_index, blob) when s_index <= Paxos.applied p ->
      state := (Marshal.from_string blob 0 : string);
      s_index + 1
    | _ -> Paxos.base p + 1
  in
  List.iter
    (fun v -> state := fold_state !state v)
    (Paxos.get_committed_range p ~lo:from ~hi:(Paxos.applied p));
  (p, state)

let make_sim ~threshold () =
  let sim = G.create ~seed:19 ~config:(compact_config ~threshold) () in
  let nodes = List.map (add_node sim) sim.G.members in
  (sim, nodes)

(* n2 plays the checkpoint backup: hand its state to consensus as a
   snapshot every [every] applied entries.  [stop_after] freezes the
   snapshot index, which pins the compaction watermark and guarantees a
   log suffix survives for the chunked catch-up path to page through. *)
let snapshot_offerer sim (p2, state2) ~every ~stop_after =
  let last = ref 0 in
  let rec loop () =
    Engine.after sim.G.eng (Time.ms 10) (fun () ->
        let a = Paxos.applied p2 in
        if a - !last >= every && a <= stop_after then begin
          last := a;
          Paxos.offer_snapshot p2 ~index:a ~blob:(Marshal.to_string !state2 [])
        end;
        loop ())
  in
  loop ()

let stream sim p1 ~n =
  Engine.spawn sim.G.eng ~name:"stream" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      for i = 1 to n do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.us 200)
      done)

let test_compaction_bounds_log () =
  let sim, nodes = make_sim ~threshold:32 () in
  let p1, _ = List.nth nodes 0 in
  let p2, s2 = List.nth nodes 1 in
  snapshot_offerer sim (p2, s2) ~every:64 ~stop_after:320;
  stream sim p1 ~n:400;
  Engine.run ~until:(Time.ms 400) sim.eng;
  check_no_failures sim.eng;
  List.iter
    (fun { G.n_name = name; n_p = p; _ } ->
      let s = Paxos.stats p in
      Alcotest.(check bool) (name ^ " committed everything") true
        (Paxos.committed p = 400);
      Alcotest.(check bool) (name ^ " compacted") true (Paxos.base p > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s log bounded (peak %d)" name s.Paxos.peak_log_resident)
        true
        (s.Paxos.peak_log_resident < 300);
      Alcotest.(check bool) (name ^ " WAL prefix freed") true
        (Wal.dropped (Hashtbl.find sim.wals name) > 0))
    sim.nodes;
  (* resident suffixes agree across replicas *)
  let lo = 1 + List.fold_left (fun m n -> max m (Paxos.base n.G.n_p)) 0 sim.G.nodes in
  let range p = Paxos.get_committed_range p ~lo ~hi:(Paxos.committed p) in
  let r1 = range p1 in
  Alcotest.(check bool) "suffix nonempty" true (r1 <> []);
  List.iter
    (fun { G.n_name = name; n_p = p; _ } ->
      Alcotest.(check (list string)) (name ^ " suffix agrees") r1 (range p))
    sim.nodes

let test_snapshot_catchup_converges () =
  let sim, nodes = make_sim ~threshold:32 () in
  let p1, s1 = List.nth nodes 0 in
  let p2, s2 = List.nth nodes 1 in
  (* snapshots stop at index ~600 of a 1000-entry history: recovery needs
     the snapshot AND hundreds of suffix entries paged in small chunks *)
  snapshot_offerer sim (p2, s2) ~every:64 ~stop_after:600;
  stream sim p1 ~n:1000;
  (* kill n3 early: by restart time the watermark is far past its applied
     index, so its log prefix no longer exists anywhere *)
  Engine.run ~until:(Time.ms 20) sim.eng;
  G.kill_node sim "n3";
  (* the dead peer drops out of the watermark once it goes stale
     (election_timeout), after which compaction passes its old position *)
  Engine.run ~until:(Time.ms 300) sim.eng;
  Alcotest.(check bool) "primary compacted past the victim" true
    (Paxos.base p1 > 40);
  let p3, s3 = add_node sim "n3" in
  Engine.run ~until:(Time.sec 1) sim.eng;
  check_no_failures sim.eng;
  let st3 = Paxos.stats p3 in
  Alcotest.(check bool) "recovered via the snapshot path" true
    (st3.Paxos.snapshots_installed >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "chunked catch-up paged the suffix in (installed %d)"
       st3.Paxos.catchup_installed)
    true
    (st3.Paxos.catchup_installed >= 100);
  Alcotest.(check int) "applied the whole history" (Paxos.committed p1)
    (Paxos.applied p3);
  Alcotest.(check string) "state converged" !s1 !s3

(* Every long-lived per-entry structure stays bounded: the ack table is
   pruned as the commit index advances, and the batch-size histogram is
   clamped to a fixed bucket range. *)
let test_ack_and_histogram_bounded () =
  let sim, nodes = make_sim ~threshold:0 () in
  let p1, _ = List.nth nodes 0 in
  Engine.spawn sim.G.eng ~name:"stream" (fun () ->
      Engine.sleep sim.eng (Time.ms 10);
      (* an oversized batch lands in the top histogram bucket *)
      ignore (Paxos.submit p1 (List.init 100 (fun i -> Printf.sprintf "b%d" i)));
      for i = 1 to 300 do
        ignore (Paxos.submit p1 [ Printf.sprintf "v%d" i ]);
        Engine.sleep sim.eng (Time.us 200)
      done);
  Engine.run ~until:(Time.ms 300) sim.eng;
  check_no_failures sim.eng;
  let s = Paxos.stats p1 in
  (* the 100-event batch is one Accept round but occupies 100 indices *)
  Alcotest.(check int) "all committed" 400 (Paxos.committed p1);
  Alcotest.(check bool)
    (Printf.sprintf "ack table pruned behind the commit index (resident %d)"
       s.Paxos.acks_resident)
    true
    (s.Paxos.acks_resident <= 64);
  List.iter
    (fun (size, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "histogram bucket %d within cap" size)
        true (size <= 64))
    s.Paxos.events_per_batch;
  Alcotest.(check bool) "oversized batch clamped into the cap bucket" true
    (List.mem_assoc 64 s.Paxos.events_per_batch);
  (* the clamp must not hide the truth: the unclamped observed max
     survives in stats *)
  Alcotest.(check int) "true max batch reported unclamped" 100 s.Paxos.max_batch;
  Alcotest.(check int) "histogram cap exposed" 64 Paxos.histogram_cap

(* The quiescence back-off is capped: a connection that never drains
   skips the round instead of wedging the checkpointer forever. *)
let test_quiescence_cap_skips_round () =
  let eng = Engine.create () in
  let fs = Memfs.create () in
  let container = Container.create eng ~name:"lxc" fs in
  let mgr =
    Manager.create eng ~max_backoffs:4 ~container
      ~state_of:(fun () -> "s")
      ~mem_bytes:(fun () -> 1_000_000)
      ~alive_conns:(fun () -> 1) (* never drains *)
      ~global_index:(fun () -> 7)
  in
  let result = ref (Some true) in
  Engine.spawn eng ~name:"ckpt" (fun () ->
      result := Option.map (fun _ -> true) (Manager.checkpoint_now mgr));
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "round skipped" true (!result = None);
  Alcotest.(check int) "skip counted" 1 (Manager.checkpoints_skipped mgr);
  Alcotest.(check int) "nothing checkpointed" 0 (Manager.checkpoints_taken mgr)

(* ------------------------------------------------------------------ *)
(* Fixed-seed equivalence: compaction must be invisible in the outputs *)

let run_cluster_outputs ~threshold ~output_keep =
  let cfg =
    { Chaos.chaos_config with
      Instance.paxos =
        { Chaos.chaos_config.Instance.paxos with
          Paxos.compaction_threshold = threshold };
      checkpoint_period = Time.ms 800;
      output_keep;
    }
  in
  let cluster = Cluster.create ~seed:23 ~cfg ~server:Ledger.server () in
  Cluster.start cluster;
  let eng = Cluster.engine cluster in
  Cluster.run ~until:(Time.ms 200) cluster;
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let handle =
    Loadgen.run ~name:"load" ~think:(Time.ms 5) ~retries:4
      ~retry_backoff:(Time.ms 100) ~clients:1 ~requests:120
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 60) target handle;
  (* leave time for checkpoints to quiesce and compaction to run *)
  Cluster.run ~until:(Engine.now eng + Time.sec 4) cluster;
  Cluster.check_failures cluster;
  (Cluster.outputs cluster, List.map (fun (n, i) -> (n, i.Instance.paxos)) (Cluster.instances cluster))

let test_outputs_identical_compaction_on_off () =
  let on, on_paxos = run_cluster_outputs ~threshold:24 ~output_keep:32 in
  let off, _ = run_cluster_outputs ~threshold:0 ~output_keep:1_000_000 in
  (* the compacting run actually compacted and trimmed, or this test
     checks nothing *)
  Alcotest.(check bool) "compaction happened" true
    (List.exists (fun (_, p) -> (Paxos.stats p).Paxos.compactions > 0) on_paxos);
  Alcotest.(check bool) "output log trimmed" true
    (List.exists (fun (_, o) -> Output_log.dropped o > 0) on);
  List.iter2
    (fun (na, oa) (nb, ob) ->
      Alcotest.(check string) "same replica" na nb;
      Alcotest.(check int) (na ^ " same total outputs") (Output_log.total oa)
        (Output_log.total ob);
      Alcotest.(check bool) (na ^ " outputs identical across modes") true
        (Output_log.equal oa ob))
    on off

let suite =
  [
    ( "compaction",
      [
        Alcotest.test_case "wal truncate drops prefix" `Quick
          test_wal_truncate_drops_prefix;
        Alcotest.test_case "wal crash before header" `Quick
          test_wal_truncate_crash_before_header;
        Alcotest.test_case "wal crash between phases" `Quick
          test_wal_truncate_crash_between_phases;
        Alcotest.test_case "wal overlapping truncations" `Quick
          test_wal_truncate_overlapping;
        Alcotest.test_case "compaction bounds the log" `Quick
          test_compaction_bounds_log;
        Alcotest.test_case "snapshot catch-up converges" `Quick
          test_snapshot_catchup_converges;
        Alcotest.test_case "acks + histogram bounded" `Quick
          test_ack_and_histogram_bounded;
        Alcotest.test_case "quiescence cap skips round" `Quick
          test_quiescence_cap_skips_round;
        Alcotest.test_case "outputs identical, compaction on/off" `Slow
          test_outputs_identical_compaction_on_off;
      ] );
  ]
