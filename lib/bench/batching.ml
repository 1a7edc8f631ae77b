(** Batched vs. unbatched commit throughput, and a fixed-seed probe that
    batching leaves every server's outputs unchanged.

    One measured configuration is a 3-replica Paxos_only cluster (the
    consensus pipeline without DMT overhead) under an open-loop
    streaming workload: [clients] connections each inject a small
    request event every 100 us for [duration], without waiting for
    responses.  That arrival rate (16 clients -> ~160k events/s)
    saturates the unbatched commit path, whose ceiling is one 15 us WAL
    fsync per event (~66k/s); commit throughput is the primary's decided
    index at the cutoff instant over the streaming window.  The stream's
    requests do not depend on the server (all five give identical rows),
    so one server stands for all. *)

open Harness
module Sock = Crane_socket.Sock
module Wal = Crane_storage.Wal

let clients = 16
let duration quick = if quick then Time.ms 200 else Time.sec 1
let eq_requests quick = if quick then 12 else 32

let case ~quick mode =
  Printf.sprintf "%s (%d clients, %.0f ms)" mode clients (Time.to_float_ms (duration quick))

let eq_case ~quick (s : Servers.t) =
  Printf.sprintf "%s equivalence (%d requests)" s.name (eq_requests quick)

let cfg (s : Servers.t) ~batch_max =
  { (fast_cfg ~mode:Instance.Paxos_only ~port:s.port) with batch_max }

let stream ~case ~batch_max ~quick ~seed =
  let s = Servers.find "apache" and duration = duration quick in
  let cluster = Cluster.create ~seed ~cfg:(cfg s ~batch_max) ~server:(s.server ~hints:true) () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let world = Cluster.world cluster in
  let start = Time.ms 10 in
  let spacing = Time.us 100 in
  let sent = ref 0 in
  for i = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "stream%d" i) (fun () ->
        (* Staggered starts de-synchronize the streams. *)
        Engine.sleep eng (start + Time.us (7 * i));
        match Sock.connect world ~from:(Printf.sprintf "c%d" i) ~node:"replica1" ~port:s.port with
        | exception _ -> ()
        | conn ->
          incr sent;
          (try
             while Engine.now eng < start + duration do
               Sock.send conn (Printf.sprintf "req-%d" i);
               incr sent;
               Engine.sleep eng spacing
             done
           with _ -> ()))
  done;
  Cluster.run ~until:(start + duration) cluster;
  Cluster.check_failures cluster;
  let commits, batches, mean_batch, max_batch =
    match Cluster.primary cluster with
    | Some (_, inst) ->
      let s = Paxos.stats inst.Instance.paxos in
      let events, n =
        List.fold_left
          (fun (ev, n) (size, count) -> (ev + (size * count), n + count))
          (0, 0) s.Paxos.events_per_batch
      in
      ( Paxos.committed inst.Instance.paxos, s.Paxos.batches_committed,
        (if n = 0 then 0.0 else float_of_int events /. float_of_int n),
        s.Paxos.max_batch )
    | None -> (0, 0, 0.0, 0)
  in
  let wal_writes = Wal.writes (Hashtbl.find cluster.Cluster.wals "replica1") in
  Rows.
    [ row case "commits" "count" Higher (float commits);
      row case "commits_per_sec" "1/s" Higher
        (float commits /. (Time.to_float_ms duration /. 1000.));
      row case "events_sent" "count" Higher (float !sent);
      row case "wal_writes" "count" Lower (float wal_writes);
      row case "batches_committed" "count" Lower (float batches);
      row case "mean_batch" "events" Higher mean_batch;
      (* the histogram caps its top bucket; this is the true max *)
      row case "max_batch" "events" Higher (float max_batch) ]

(* Fixed-seed equivalence probe: a sequential client (no response-latency
   races, so event arrival order cannot depend on commit timing) against
   the same seed, batched and unbatched — the replica output logs must
   render byte-identically. *)
let equivalent (s : Servers.t) ~seed ~requests =
  let render batch_max =
    let _, cl =
      on_cluster ~seed ~cfg:(cfg s ~batch_max) ~server:(s.server ~hints:true) (fun _ ->
          closed_loop ~clients:1 ~requests ~rng:(Rng.create (seed + 1)) s)
    in
    match Cluster.outputs cl with
    | (_, o) :: _ -> Output_log.render o
    | [] -> ""
  in
  let a = render 1 and b = render 64 in
  a <> "" && String.equal a b

let run ~quick ~seed =
  let run mode batch_max = stream ~case:(case ~quick mode) ~batch_max ~quick ~seed in
  let unbatched = run "unbatched" 1 and batched = run "batched" 64 in
  let u = Rows.find unbatched (case ~quick "unbatched") "commits_per_sec"
  and b = Rows.find batched (case ~quick "batched") "commits_per_sec" in
  let speedup = if u > 0.0 then b /. u else 0.0 in
  let equivalence (s : Servers.t) =
    Rows.flag (eq_case ~quick s) "outputs_identical"
      (equivalent s ~seed ~requests:(eq_requests quick))
  in
  unbatched @ batched
  @ Rows.row (case ~quick "batched") "speedup" "x" Rows.Higher speedup
    :: List.map equivalence Servers.all

let min_speedup = 2.0

let gates ({ quick; rows; _ } : Rows.t) =
  Rows.at_least "batched/unbatched commit speedup"
    (Rows.find rows (case ~quick "batched") "speedup")
    min_speedup
  :: List.map (fun s -> Rows.is_set rows (eq_case ~quick s) "outputs_identical") Servers.all
