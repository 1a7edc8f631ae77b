(** The benchmark's metrics: name, unit, direction and clock.

    [end_to_end] and [per_layer] are exactly the lists of
    [BENCHMARK.json] (the unit test holds the two together).  A
    single-workload run prints the first with [--trace 0] and the second
    with [--trace 1]; [reported] metrics are printed by name but are not
    in the file, because they are zero on a healthy run or exist on one
    workload only. *)

type better = Lower | Higher

(** Which clock a value comes from.  [Virtual] values and [Count]s
    repeat exactly for a fixed seed; [Host] values are measurements of
    the benchmark process. *)
type kind = Virtual | Count | Host

type t = { name : string; unit_ : string; better : better; kind : kind }

let m ?(better = Lower) name unit_ kind = { name; unit_; better; kind }

let end_to_end =
  [
    m "setup_s" "s" Host;
    m "host_s" "s" Host;
    m "heap_peak_mb" "MB" Host;
    m "lat_p50_ms" "ms" Virtual;
    m "lat_p99_ms" "ms" Virtual;
    m "write_p99_ms" "ms" Virtual;
    m "p50_over_native" "x" Virtual;
  ]

let reported =
  [
    m "fail_frac" "ratio" Count;
    m "max_rate_rps" "1/s" Virtual ~better:Higher;
    m "unavail_ms" "ms" Virtual;
  ]

let host_layers =
  [ "engine"; "pheap"; "fabric"; "sock"; "paxos"; "wal"; "proxy"; "paxos_seq";
    "vhost"; "runtime"; "dmt"; "pthread"; "app"; "checkpoint"; "trace"; "client"; "other" ]

let stages =
  [ "client_queue"; "batch_wait"; "fsync"; "consensus"; "sched_wait"; "execute"; "reply" ]

let per_layer =
  List.map (fun l -> m ("host_ms." ^ l) "ms" Host) host_layers
  @ [
      m "host.samples" "count" Host;
      m "host.unattributed_pct" "%" Host;
      m "sim.pending_peak" "count" Count;
      m "sim.pending_mean" "count" Count;
      m "gc.minor_mwords" "Mwords" Count;
      m "gc.words_per_req" "words/op" Count;
      m "gc.major_collections" "count" Count;
    ]
  @ List.map (fun s -> m ("stage_p50_us." ^ s) "us" Virtual) stages
  @ List.map (fun s -> m ("stage_p99_us." ^ s) "us" Virtual) stages
  @ [
      m "cp.coverage" "ratio" Count ~better:Higher;
      m "blocked_ms.gate" "ms" Virtual;
      m "blocked_ms.dmt_turn" "ms" Virtual;
      m "paxos.decisions_per_op" "count/op" Count;
      m "paxos.bubble_pct" "%" Count;
      m "paxos.mean_batch" "events" Count ~better:Higher;
      m "net.msgs_per_op" "msgs/op" Count;
      m "wal.writes_per_op" "writes/op" Count;
      m "read.lease_pct" "%" Count ~better:Higher;
      m "read.backup_pct" "%" Count ~better:Higher;
      m "read.reject_pct" "%" Count;
      m "seq.max_depth" "count" Count;
      m "app.footprint_calls_per_op" "calls/op" Count;
      m "app.read_calls_per_op" "calls/op" Count;
      m "app.footprint_host_ms" "ms" Host;
      m "app.read_host_ms" "ms" Host;
      m "paxos.view_changes" "count" Count;
      m "paxos.election_ms" "ms" Virtual;
      m "paxos.catchup_installed" "count" Count;
      m "ckpt.snapshots_installed" "count" Count;
      m "ckpt.taken" "count" Count;
      m "net.dropped" "count" Count;
      m "paxos.log_resident_peak" "entries" Count;
      m "gen.late_max_us" "us" Virtual;
      m "trace.events" "count" Count;
      m "trace.overhead_pct" "%" Host;
    ]

let all = end_to_end @ reported @ per_layer
let find name = List.find_opt (fun x -> x.name = name) all

let better_of_string = function "lower" -> Some Lower | "higher" -> Some Higher | _ -> None
