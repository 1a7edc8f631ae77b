(** Bounded logs and two-tier catch-up: what log compaction buys.

    A 3-node consensus group streams [history] decisions while one
    backup is down, then restarts it and times how long the straggler
    takes to re-join.  With compaction on, the group's resident log
    stays bounded (entries below the watermark are freed once a snapshot
    covers them) and the straggler recovers via snapshot transfer plus a
    short log suffix; with compaction off, the log grows with history
    and recovery replays everything.  The paxos layer is benched
    directly (no DMT) so the numbers isolate the consensus/storage
    path. *)

open Harness
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal

type rnode = { rn_paxos : Paxos.t; rn_group : Engine.group; rn_state : string ref }

let members = [ "n1"; "n2"; "n3" ]

let run_one ~case ~threshold ~history ~seed =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create seed) in
  let wals = Hashtbl.create 4 in
  let config =
    { Paxos.default_config with
      Paxos.heartbeat_period = Time.ms 50; election_timeout = Time.ms 200;
      election_jitter = Time.ms 30; round_retry = Time.ms 50;
      compaction_threshold = threshold; catchup_chunk = 256;
      lease_duration = Time.ms 100 }
  in
  (* [on_progress index] fires at each decision the node applies or
     snapshot it installs, at the exact virtual instant it happens. *)
  let boot ?(on_progress = fun (_ : int) -> ()) name =
    let wal =
      match Hashtbl.find_opt wals name with
      | Some w -> w
      | None ->
        let w = Wal.create eng ~name in
        Hashtbl.add wals name w;
        w
    in
    let group = Engine.new_group eng in
    let p =
      Paxos.create ~config ~fabric ~rng:(Rng.create (seed + Hashtbl.hash name)) ~wal
        ~members:members ~node:name ~group ()
    in
    (* The replicated state is a chain digest of the decision stream: tiny,
       but it distinguishes any two histories, so convergence checks are
       as strict as with a real server. *)
    let state = ref "" in
    Paxos.set_handlers p
      { Paxos.on_commit =
          (fun ~index v ->
            state := Digest.to_hex (Digest.string (!state ^ v));
            on_progress index);
        on_demote = (fun () -> ());
      on_config = (fun ~epoch:_ _ -> ());
      on_fence = (fun ~epoch:_ -> ()) };
    Paxos.set_compaction_hooks p
      { Paxos.install_snapshot =
          (fun ~index blob ->
            state := (Marshal.from_string blob 0 : string);
            on_progress index);
        on_compact = (fun ~watermark:_ -> ()) };
    Paxos.start p ~as_primary:(name = "n1") ();
    Fabric.node_up fabric name;
    (* WAL recovery does not re-fire on_commit (a real instance replays
       decided calls itself, from its restored checkpoint); do the same
       here — restore the recovered snapshot, then fold the resident
       committed suffix into the state. *)
    let from =
      match Paxos.snapshot p with
      | Some (s_index, blob) when s_index <= Paxos.applied p ->
        state := (Marshal.from_string blob 0 : string);
        s_index + 1
      | _ -> Paxos.base p + 1
    in
    List.iter
      (fun v -> state := Digest.to_hex (Digest.string (!state ^ v)))
      (Paxos.get_committed_range p ~lo:from ~hi:(Paxos.applied p));
    { rn_paxos = p; rn_group = group; rn_state = state }
  in
  let n1 = boot "n1" in
  let n2 = boot "n2" in
  let n3 = boot "n3" in
  (* n2 plays the checkpoint backup: every ~256 applied decisions it hands
     its state to consensus as a snapshot (what Instance does after each
     real checkpoint), which is what licenses compaction. *)
  let snap_every = 256 in
  let last_offered = ref 0 in
  let rec snap_loop () =
    Engine.after eng (Time.ms 20) (fun () ->
        let a = Paxos.applied n2.rn_paxos in
        if a - !last_offered >= snap_every then begin
          last_offered := a;
          Paxos.offer_snapshot n2.rn_paxos ~index:a
            ~blob:(Marshal.to_string !(n2.rn_state) [])
        end;
        snap_loop ())
  in
  snap_loop ();
  Engine.spawn eng ~name:"stream" (fun () ->
      Engine.sleep eng (Time.ms 10);
      for i = 1 to history do
        ignore (Paxos.submit n1.rn_paxos [ Printf.sprintf "r%07d" i ]);
        Engine.sleep eng (Time.us 100)
      done);
  (* Kill n3 early: everything decided after this point is history it must
     recover on restart. *)
  Engine.run ~until:(Time.ms 50) eng;
  Engine.kill_group eng n3.rn_group;
  Fabric.node_down fabric "n3";
  let stream_end = Time.ms 10 + (history * Time.us 100) in
  Engine.run ~until:(stream_end + Time.ms 300) eng;
  (* The straggler's two recovery instants, taken in its own hooks: its
     first catch-up progress (a decision applied or a snapshot installed)
     and the moment it has applied everything the primary committed. *)
  let first_progress = ref None and caught_up = ref None in
  let on_progress index =
    let now = Engine.now eng in
    if !first_progress = None then first_progress := Some now;
    if !caught_up = None && index >= Paxos.committed n1.rn_paxos then caught_up := Some now
  in
  let n3' = boot ~on_progress "n3" in
  let t0 = Engine.now eng in
  Loadgen.step_until eng ~step:(Time.ms 5) ~deadline:(t0 + Time.sec 60) (fun () ->
      Paxos.applied n3'.rn_paxos >= Paxos.committed n1.rn_paxos);
  (* A straggler that never caught up is charged the whole wait. *)
  let caught_up = Option.value !caught_up ~default:(Engine.now eng) in
  let first_progress = Option.value !first_progress ~default:caught_up in
  let converged =
    Paxos.applied n3'.rn_paxos >= Paxos.committed n1.rn_paxos
    && String.equal !(n3'.rn_state) !(n1.rn_state)
  in
  (match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    failwith (Printf.sprintf "bench thread %s died: %s" name (Printexc.to_string e)));
  let live = [ n1; n2; n3' ] in
  let peak =
    List.fold_left
      (fun acc n -> max acc (Paxos.stats n.rn_paxos).Paxos.peak_log_resident)
      0 live
  in
  let wal1 = Hashtbl.find wals "n1" in
  let compactions =
    List.fold_left (fun acc n -> acc + (Paxos.stats n.rn_paxos).Paxos.compactions) 0 live
  in
  Rows.
    [ row case "recovery" "ms" Lower (Time.to_float_ms (caught_up - t0));
      row case "rejoin_wait" "ms" Lower (Time.to_float_ms (first_progress - t0));
      row case "catchup" "ms" Lower (Time.to_float_ms (caught_up - first_progress));
      row case "peak_log_resident" "entries" Lower (float peak);
      row case "final_log_resident" "entries" Lower
        (float (Paxos.stats n1.rn_paxos).Paxos.log_resident);
      row case "wal_records" "records" Lower (float (Wal.length wal1));
      row case "wal_dropped" "records" Higher (float (Wal.dropped wal1));
      row case "compactions" "count" Higher (float compactions);
      row case "snapshots_installed" "count" Higher
        (float (Paxos.stats n3'.rn_paxos).Paxos.snapshots_installed);
      flag case "converged" converged ]

let threshold = 128
let histories quick = if quick then [ 500; 1000; 2000 ] else [ 1000; 2000; 4000; 8000 ]

let case threshold history =
  Printf.sprintf "history %d, %s" history
    (if threshold > 0 then Printf.sprintf "compaction at %d" threshold else "no compaction")

(* Every run, compacted first, in row order. *)
let runs quick =
  List.concat_map (fun th -> List.map (fun h -> (th, h)) (histories quick)) [ threshold; 0 ]

let run ~quick ~seed =
  List.concat_map
    (fun (th, history) -> run_one ~case:(case th history) ~threshold:th ~history ~seed)
    (runs quick)

let gates ({ quick; rows; _ } : Rows.t) =
  let hs = histories quick in
  let smallest = List.hd hs and largest = List.nth hs (List.length hs - 1) in
  let on th history m = Rows.find rows (case th history) m in
  let peak = on threshold largest "peak_log_resident"
  and small_peak = on threshold smallest "peak_log_resident" in
  let off_peak = on 0 largest "peak_log_resident" in
  let catchup = on threshold largest "catchup" and off_catchup = on 0 largest "catchup" in
  (* "bounded" means the peak stops tracking history length: the largest
     run's peak must stay within a constant band of the smallest run's,
     and clearly below the uncompacted peak. *)
  [ Rows.at_most (Printf.sprintf "compacted peak log at history %d, flat bound" largest) peak
      ((2. *. small_peak) +. 256.);
    (Printf.sprintf "compacted peak %.0f below uncompacted peak %.0f" peak off_peak,
     peak < off_peak);
    Rows.at_least "snapshots installed by the straggler at the largest history"
      (on threshold largest "snapshots_installed") 1.;
    (Printf.sprintf "uncompacted catch-up %.3f ms above compacted %.3f ms at history %d"
       off_catchup catchup largest,
     off_catchup > catchup) ]
  @ List.map (fun (th, h) -> Rows.is_set rows (case th h) "converged") (runs quick)
