(** Deterministic chaos harness: a Jepsen-style nemesis that runs inside
    the virtual-time simulator.

    A scenario is a fault schedule — timed steps or a seeded probabilistic
    stream — injected into a live CRANE cluster while a ledger workload
    runs against it.  Because every source of nondeterminism (fabric
    jitter, election jitter, nemesis choices, client think times) draws
    from the same seeded RNG tree and fires off engine timers, a run is a
    pure function of its seed: two runs with the same seed and scenario
    produce byte-identical reports.

    While the schedule plays out, an invariant sampler checks safety
    continuously (single primary per view, committed-prefix agreement);
    after the schedule the driver heals the network (it does {e not}
    restart crashed replicas — the cluster must cope with what survived),
    probes for liveness, and renders a verdict per invariant. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Fabric = Crane_net.Fabric
module Paxos = Crane_paxos.Paxos
module Cluster = Crane_core.Cluster
module Instance = Crane_core.Instance
module Output_log = Crane_core.Output_log
module Proxy = Crane_core.Proxy
module Target = Crane_workload.Target
module Loadgen = Crane_workload.Loadgen
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
module Table = Crane_report.Table

(* ------------------------------------------------------------------ *)
(* Scenario DSL                                                        *)

type fault =
  | Crash_primary of { torn_wal : bool }
      (** SIGKILL the current primary; with [torn_wal] the crash lands
          mid-WAL-append, leaving a torn tail for recovery to discard. *)
  | Crash_backup of { torn_wal : bool }  (** kill a random live backup *)
  | Crash_random  (** kill a random live replica (quorum-guarded) *)
  | Crash_node of string
      (** kill a specific replica by name — deterministic scenarios use it
          to pick a node that is {e not} the checkpoint backup, so its
          recovery must come through consensus state transfer rather than
          the out-of-band checkpoint shipment *)
  | Restart_one  (** restart the oldest crashed replica from a checkpoint *)
  | Partition_primary  (** symmetric: isolate the primary from everyone *)
  | Partition_oneway_primary
      (** asymmetric: block traffic {e towards} the primary only; backups
          still hear its heartbeats, so only primary abdication (on lost
          quorum contact) restores progress *)
  | Partition_random  (** symmetric: isolate a random live replica *)
  | Partition_node of string  (** symmetric: isolate a specific replica *)
  | Heal  (** remove all partitions *)
  | Loss_window of { loss : float; duration : Time.t }
  | Latency_spike of { base : Time.t; jitter : Time.t; duration : Time.t }
  | Replace of { dead : string; fresh : string }
      (** live reconfiguration: swap [dead] out of the membership for a
          freshly booted [fresh], routed through consensus *)
  | Replace_crashed of { fresh : string }
      (** like [Replace], but the victim is whichever replica crashed
          first — scenarios that kill the (unknown-by-name) primary use it
          to reconfigure the corpse out afterwards *)
  | Autoheal
      (** arm the cluster's failure detector: suspected-dead members are
          replaced automatically from here on *)

let fault_name = function
  | Crash_primary { torn_wal } -> if torn_wal then "crash_primary_torn" else "crash_primary"
  | Crash_backup { torn_wal } -> if torn_wal then "crash_backup_torn" else "crash_backup"
  | Crash_random -> "crash_random"
  | Crash_node n -> "crash_node " ^ n
  | Restart_one -> "restart"
  | Partition_primary -> "partition_primary"
  | Partition_oneway_primary -> "partition_oneway_primary"
  | Partition_random -> "partition_random"
  | Partition_node n -> "partition_node " ^ n
  | Heal -> "heal"
  | Loss_window _ -> "loss_window"
  | Latency_spike _ -> "latency_spike"
  | Replace { dead; fresh } -> Printf.sprintf "replace %s -> %s" dead fresh
  | Replace_crashed { fresh } -> Printf.sprintf "replace_crashed -> %s" fresh
  | Autoheal -> "autoheal"

type step = { at : Time.t; fault : fault }

type schedule =
  | Timed of step list
  | Probabilistic of { faults : int; start : Time.t; stop : Time.t }
      (** [faults] nemesis actions at seeded-random times in [start,stop],
          drawn from a weighted fault pool *)

type scenario = {
  name : string;
  about : string;
  schedule : schedule;
  duration : Time.t;  (** schedule horizon: faults all fire before this *)
  settle : Time.t;  (** quiet period after healing, before final checks *)
  clients : int;
  requests : int;
  think : Time.t;
  read_clients : int;
      (** fast-path read-burst threads hammering every replica's read
          port throughout the run (0 = no read traffic); their
          observations feed the bounded-stale-reads invariant *)
  expect_snapshot : bool;
      (** the scenario is built so that a replica falls behind the
          compaction watermark: the run must recover it through the
          snapshot catch-up path (at least one snapshot install) *)
  lease_fence : bool;
      (** arm the lease-fence prober: from the moment the schedule
          partitions the primary, a dedicated thread hammers the
          ex-primary's read port starting [lease_duration] after the cut
          and until heal.  Any fast read still served in [`Lease] mode in
          that window violates the [lease-fencing] invariant — the
          isolated primary lost its heartbeat-ack quorum, so its lease
          must lapse on its own, well before the [suspect_timeout]
          failure detector would notice the partition *)
}

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

type election = {
  e_at : Time.t;
  winner : string;
  e_view : int;
  e_duration : Time.t option;  (** None for the boot-time primary *)
}

type report = {
  r_scenario : string;
  r_seed : int;
  injected : (Time.t * string) list;
  elections : election list;
  r_abdications : int;
  r_catchup_installed : int;  (** log entries refilled via catch-up *)
  r_torn_discarded : int;
  r_compactions : int;  (** log-compaction rounds across all replicas *)
  r_snapshots_installed : int;  (** replicas fast-forwarded via snapshot *)
  r_reconfigs : int;  (** membership changes activated (max over replicas) *)
  r_epoch : int;  (** configuration epoch in force at the end of the run *)
  r_fenced_drops : int;  (** messages dropped from fenced-out old members *)
  r_lease_reads : int;  (** fast-path reads served under leader leases *)
  r_backup_reads : int;  (** bounded-stale reads served by backup proxies *)
  r_lease_rejects : int;  (** fast-path reads refused (no lease / fenced) *)
  r_read_obs : int;  (** read-burst observations audited by the checker *)
  r_seq_peak : int;
      (** deepest PAXOS-sequence backlog seen on any live replica *)
  r_seq_peak_view : int;
      (** view that peak is attributed to — [Paxos_seq.max_depth] resets
          on view change, so a report never carries a stale peak from a
          previous primary's burst regime *)
  r_checkpoints_skipped : int;  (** rounds abandoned: connections never drained *)
  r_acked : int;
  r_ok : int;
  r_errors : int;
  r_retries : int;
  r_latency : Metrics.summary option;
      (** recorder-sourced commit latency (propose to first admission,
          the [req.lifecycle] span) under the fault schedule *)
  probe_ok : int;
  probe_errors : int;
  final_primary : string option;
  invariants : (string * string option) list;  (** name, None = pass *)
}

let passed r = List.for_all (fun (_, verdict) -> verdict = None) r.invariants

let render_report r =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "=== chaos scenario %-28s seed=%d ===" r.r_scenario r.r_seed;
  Buffer.add_string b
    (Table.render ~title:"faults injected" ~header:[ "virtual time"; "fault" ]
       (List.map (fun (t, f) -> [ Time.to_string t; f ]) r.injected));
  Buffer.add_string b "\n";
  Buffer.add_string b
    (Table.render ~title:"elections" ~header:[ "virtual time"; "winner"; "view"; "duration" ]
       (List.map
          (fun e ->
            [ Time.to_string e.e_at; e.winner; string_of_int e.e_view;
              (match e.e_duration with
              | Some d -> Time.to_string d
              | None -> "boot") ])
          r.elections));
  Buffer.add_string b "\n";
  let lat pick =
    match r.r_latency with
    | Some s -> Time.to_string (pick s)
    | None -> "-"
  in
  Buffer.add_string b
    (Table.render ~title:"workload"
       ~header:
         [ "ok"; "retries"; "errors"; "acked"; "probe ok"; "probe errors";
           "commit p50"; "commit p90"; "commit p99" ]
       [ [ string_of_int r.r_ok; string_of_int r.r_retries; string_of_int r.r_errors;
           string_of_int r.r_acked; string_of_int r.probe_ok;
           string_of_int r.probe_errors;
           lat (fun s -> s.Metrics.p50); lat (fun s -> s.Metrics.p90);
           lat (fun s -> s.Metrics.p99) ] ]);
  Buffer.add_string b "\n";
  line "abdications:        %d" r.r_abdications;
  line "catch-up installed: %d entries" r.r_catchup_installed;
  line "torn WAL discarded: %d records" r.r_torn_discarded;
  line "compactions:        %d rounds" r.r_compactions;
  line "snapshot installs:  %d" r.r_snapshots_installed;
  line "reconfigurations:   %d (final epoch %d, %d fenced drops)" r.r_reconfigs
    r.r_epoch r.r_fenced_drops;
  line "read fast path:     %d lease / %d backup / %d rejected (%d observations \
        audited)"
    r.r_lease_reads r.r_backup_reads r.r_lease_rejects r.r_read_obs;
  line "seq depth peak:     %d entries (view %d)" r.r_seq_peak r.r_seq_peak_view;
  line "checkpoints skipped:%d" r.r_checkpoints_skipped;
  line "final primary:      %s" (Option.value r.final_primary ~default:"(none)");
  Buffer.add_string b
    (Table.render ~title:"invariants" ~header:[ "invariant"; "verdict" ]
       (List.map
          (fun (name, verdict) ->
            [ name;
              (match verdict with None -> "ok" | Some detail -> "VIOLATED: " ^ detail) ])
          r.invariants));
  Buffer.add_string b "\n";
  line "verdict: %s" (if passed r then "PASS" else "FAIL");
  Buffer.contents b

(* The suite's closing summary: one verdict per scenario, then the count. *)
let render_summary ~seed reports =
  let n = List.length reports in
  let failed = List.length (List.filter (fun r -> not (passed r)) reports) in
  Table.render ~title:"chaos suite summary" ~header:[ "scenario"; "verdict" ]
    (List.map (fun r -> [ r.r_scenario; (if passed r then "PASS" else "FAIL") ]) reports)
  ^ "\n\n"
  ^
  if failed = 0 then Printf.sprintf "all %d scenarios passed (seed %d)\n" n seed
  else Printf.sprintf "%d of %d scenarios FAILED (seed %d)\n" failed n seed

(* ------------------------------------------------------------------ *)
(* Driver state                                                        *)

type driver = {
  cluster : Cluster.t;
  eng : Engine.t;
  nemesis : Rng.t;
  boot_members : string list;
      (** the configuration the cluster booted with — replicas outside it
          joined live, and only ever saw the log from their join point *)
  mutable crashed : string list;  (** oldest first *)
  ever_crashed : (string, unit) Hashtbl.t;
  mutable injected : (Time.t * string) list;  (** newest first *)
  mutable violations : (string * string) list;  (** newest first *)
  mutable elections : election list;  (** newest first *)
  seen_views : (string * int, unit) Hashtbl.t;
  oracle : Invariants.t;
  mutable sampler_on : bool;
  mutable primary_cut : (Time.t * string) option;
      (** first [Partition_primary]: when the cut landed and who was
          primary — the lease-fence prober's target *)
  mutable fence_healed : bool;
      (** a heal reconnected the ex-primary: it may legitimately win the
          lease back, so the fence prober stands down *)
}

let live_nodes d = List.map fst (Cluster.instances d.cluster)

let note d fault detail =
  let name = Trace.fault_name fault in
  let what = if detail = "" then name else name ^ " " ^ detail in
  d.injected <- (Engine.now d.eng, what) :: d.injected;
  if Engine.tracing d.eng then Engine.emit d.eng (Trace.Fault { fault; target = detail })

let violate d inv detail =
  (* keep the first few occurrences; thousands of samples would repeat *)
  if List.length (List.filter (fun (i, _) -> i = inv) d.violations) < 3 then
    d.violations <- (inv, detail) :: d.violations

(* The first sampled violation of [inv], if any. *)
let first_violation d inv =
  List.rev d.violations |> List.assoc_opt inv

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let quorum_safe_to_kill d = Invariants.quorum_safe_to_kill d.cluster

let kill_node d ~torn node =
  Cluster.kill ~wal_torn:torn d.cluster node;
  d.crashed <- d.crashed @ [ node ];
  Hashtbl.replace d.ever_crashed node ();
  note d (if torn then Trace.Crash_torn else Trace.Crash) node

let apply_fault d fault =
  let fab = Cluster.fabric d.cluster in
  match fault with
  | Crash_primary { torn_wal } -> (
    match Cluster.primary_node d.cluster with
    | Some p when quorum_safe_to_kill d -> kill_node d ~torn:torn_wal p
    | Some _ | None -> note d Trace.Skip (fault_name fault))
  | Crash_backup { torn_wal } -> (
    let p = Cluster.primary_node d.cluster in
    let backups = List.filter (fun n -> Some n <> p) (live_nodes d) in
    match backups with
    | [] -> note d Trace.Skip (fault_name fault)
    | _ when not (quorum_safe_to_kill d) -> note d Trace.Skip (fault_name fault)
    | _ -> kill_node d ~torn:torn_wal (Rng.pick d.nemesis backups))
  | Crash_random -> (
    match live_nodes d with
    | [] -> note d Trace.Skip (fault_name fault)
    | _ when not (quorum_safe_to_kill d) -> note d Trace.Skip (fault_name fault)
    | live -> kill_node d ~torn:false (Rng.pick d.nemesis live))
  | Crash_node node ->
    if List.mem node (live_nodes d) && quorum_safe_to_kill d then
      kill_node d ~torn:false node
    else note d Trace.Skip (fault_name fault)
  | Restart_one -> (
    match d.crashed with
    | [] -> note d Trace.Skip "restart"
    | node :: rest ->
      d.crashed <- rest;
      ignore (Cluster.restart d.cluster node);
      note d Trace.Restart node)
  | Partition_primary -> (
    match Cluster.primary_node d.cluster with
    | None -> note d Trace.Skip (fault_name fault)
    | Some p ->
      let rest = List.filter (fun n -> n <> p) (Cluster.members d.cluster) in
      Fabric.partition fab [ p ] rest;
      if d.primary_cut = None then d.primary_cut <- Some (Engine.now d.eng, p);
      note d Trace.Partition p)
  | Partition_oneway_primary -> (
    match Cluster.primary_node d.cluster with
    | None -> note d Trace.Skip (fault_name fault)
    | Some p ->
      let rest = List.filter (fun n -> n <> p) (Cluster.members d.cluster) in
      Fabric.partition_oneway fab ~from:rest ~to_:[ p ];
      note d Trace.Partition_oneway ("to " ^ p))
  | Partition_random -> (
    match live_nodes d with
    | [] -> note d Trace.Skip (fault_name fault)
    | live ->
      let n = Rng.pick d.nemesis live in
      let rest = List.filter (fun m -> m <> n) (Cluster.members d.cluster) in
      Fabric.partition fab [ n ] rest;
      note d Trace.Partition n)
  | Partition_node n ->
    let rest = List.filter (fun m -> m <> n) (Cluster.members d.cluster) in
    Fabric.partition fab [ n ] rest;
    note d Trace.Partition n
  | Replace { dead; fresh } ->
    Cluster.replace_replica d.cluster ~dead ~fresh;
    note d Trace.Replace (dead ^ " -> " ^ fresh)
  | Replace_crashed { fresh } -> (
    match d.crashed with
    | [] -> note d Trace.Skip "replace_crashed"
    | dead :: rest ->
      d.crashed <- rest;
      Cluster.replace_replica d.cluster ~dead ~fresh;
      note d Trace.Replace (dead ^ " -> " ^ fresh))
  | Autoheal ->
    Cluster.enable_autoheal d.cluster;
    note d Trace.Autoheal "armed"
  | Heal ->
    Fabric.heal fab;
    if d.primary_cut <> None then d.fence_healed <- true;
    note d Trace.Heal ""
  | Loss_window { loss; duration } ->
    Fabric.set_loss fab loss;
    note d Trace.Loss_begin
      (Printf.sprintf "%.0f%% for %s" (loss *. 100.) (Time.to_string duration));
    Engine.at d.eng (Engine.now d.eng + duration) (fun () ->
        Fabric.set_loss fab 0.0;
        note d Trace.Loss_end "")
  | Latency_spike { base; jitter; duration } ->
    Fabric.set_latency fab ~base ~jitter;
    note d Trace.Latency_begin
      (Printf.sprintf "%s +/- %s for %s" (Time.to_string base) (Time.to_string jitter)
         (Time.to_string duration));
    Engine.at d.eng (Engine.now d.eng + duration) (fun () ->
        Fabric.set_latency fab ~base:(Time.us 40) ~jitter:(Time.us 20);
        note d Trace.Latency_end "")

(* Materialize a probabilistic schedule into timed steps up front, so the
   whole run (including the report's fault list) replays from the seed. *)
let fault_pool =
  [
    Crash_primary { torn_wal = false };
    Crash_primary { torn_wal = true };
    Crash_backup { torn_wal = false };
    Restart_one;
    Restart_one;
    Partition_primary;
    Partition_random;
    Heal;
    Heal;
    Loss_window { loss = 0.15; duration = Time.ms 400 };
    Latency_spike { base = Time.us 400; jitter = Time.us 200; duration = Time.ms 400 };
  ]

let materialize d = function
  | Timed steps -> steps
  | Probabilistic { faults; start; stop } ->
    let span = stop - start in
    let times =
      List.init faults (fun _ -> start + Rng.int d.nemesis (max 1 span))
      |> List.sort compare
    in
    List.map (fun at -> { at; fault = Rng.pick d.nemesis fault_pool }) times

(* ------------------------------------------------------------------ *)
(* Invariant sampler: runs every 50 ms of virtual time during the run.  *)

let sample d =
  Invariants.sample d.oracle d.cluster ~violate:(violate d);
  (* election log: first time we observe a node leading a view *)
  List.iter
    (fun (node, inst) ->
      let px = inst.Instance.paxos in
      if Instance.is_primary inst && not (Hashtbl.mem d.seen_views (node, Paxos.view px))
      then begin
        Hashtbl.replace d.seen_views (node, Paxos.view px) ();
        d.elections <-
          {
            e_at = Engine.now d.eng;
            winner = node;
            e_view = Paxos.view px;
            e_duration = (Paxos.stats px).Paxos.last_election_duration;
          }
          :: d.elections
      end)
    (Cluster.instances d.cluster)

let rec sampler_loop d =
  Engine.after d.eng (Time.ms 50) (fun () ->
      if d.sampler_on then begin
        sample d;
        sampler_loop d
      end)

(* ------------------------------------------------------------------ *)
(* Read-burst observers: fast-path reads against every replica's read
   port while the nemesis plays, each observation stamped with the
   acked-write set snapshotted before the read was issued.  The
   bounded-stale-reads invariant audits them at the end. *)

type read_obs = {
  o_node : string;  (** replica whose read port served the answer *)
  o_mode : [ `Lease | `Backup of int ];
  o_epoch : int;
  o_wm : int;  (** watermark the reply claimed *)
  o_ids : string list;  (** ledger content the reply carried *)
  o_acked_before : string list;
      (** writes acked before the read was issued (lease reads only:
          the linearizability obligation) *)
}

(* ------------------------------------------------------------------ *)
(* End-of-run checks                                                   *)

(* The stale-read invariant over the burst observations, in issue order:
   - every read (lease or backup) is a prefix of the final converged
     ledger — nobody ever served fabricated or reordered content;
   - a lease read contains every write acked before it was issued —
     leases really are linearizable, across view change and fencing;
   - per node, watermarks never regress, and a later read with an equal
     or higher watermark extends (never rewrites) an earlier one — no
     read is older than its returned watermark. *)
let check_reads ~final_ids reads =
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  let last : (string, int * string list) Hashtbl.t = Hashtbl.create 8 in
  let v = ref None in
  List.iteri
    (fun i o ->
      if !v = None then
        if not (is_prefix o.o_ids final_ids) then
          v :=
            Some
              (Printf.sprintf "read %d on %s is not a prefix of the final ledger"
                 i o.o_node)
        else if
          o.o_mode = `Lease
          && List.exists (fun id -> not (List.mem id o.o_ids)) o.o_acked_before
        then
          v :=
            Some
              (Printf.sprintf
                 "lease read %d on %s is missing a write acked before it was \
                  issued"
                 i o.o_node)
        else
          match Hashtbl.find_opt last o.o_node with
          | Some (wm, _) when o.o_wm < wm ->
            v :=
              Some
                (Printf.sprintf "watermark regressed on %s: %d after %d"
                   o.o_node o.o_wm wm)
          | Some (_, ids) when not (is_prefix ids o.o_ids) ->
            v :=
              Some
                (Printf.sprintf
                   "read %d on %s rewrote history below its watermark" i o.o_node)
          | Some _ | None -> Hashtbl.replace last o.o_node (o.o_wm, o.o_ids))
    reads;
  !v

(* A restarted replica, or one that joined live via reconfiguration,
   only re-emits outputs from its checkpoint or join point onward: its
   output log must be a suffix of a fresh replica's, where two fresh
   replicas must agree outright. *)
let output_log_divergence d live =
  let fresh n = (not (Hashtbl.mem d.ever_crashed n)) && List.mem n d.boot_members in
  let diverged ((na, ia), (nb, ib)) =
    let oa = Instance.output ia and ob = Instance.output ib in
    let ok =
      if fresh na && fresh nb then Output_log.first_divergence oa ob = None
      else Output_log.is_suffix ~of_:oa ob || Output_log.is_suffix ~of_:ob oa
    in
    if ok then None
    else
      Some
        (Printf.sprintf "%s vs %s%s" na nb
           (match Output_log.first_divergence oa ob with
           | Some i -> Printf.sprintf " at output %d" i
           | None -> ""))
  in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.find_map diverged (pairs live)

let final_checks d ~(ledger : Ledger.client) ~probe_errors ~reads =
  let live = Cluster.instances d.cluster in
  let sampled name = (name, first_violation d name) in
  [
    sampled Invariants.single_primary;
    (match sampled Invariants.prefix_agreement with
    | _, Some _ as v -> v
    | _, None -> Invariants.committed_prefix d.oracle d.cluster);
    ("output-log-divergence", output_log_divergence d live);
    Invariants.state_convergence d.cluster;
    Invariants.acked_durability d.cluster ~acked:(Ledger.acked_ids ledger);
    Invariants.epoch_agreement d.cluster;
    ( "quorum-liveness",
      if Cluster.primary_node d.cluster = None then Some "no primary after heal"
      else if probe_errors > 0 then
        Some (Printf.sprintf "%d probe requests failed after heal" probe_errors)
      else None );
    Invariants.thread_failures d.cluster;
  ]
  @
  match reads with
  | [] -> []
  | _ :: _ ->
    [ ( "bounded-stale-reads",
        match live with
        | [] -> Some "no live replicas"
        | (_, i0) :: _ ->
          check_reads ~final_ids:(Ledger.ids_of_state (Invariants.state_of i0)) reads ) ]

(* ------------------------------------------------------------------ *)
(* Running a scenario                                                  *)

(* Short failure-detection timers, as in the paper's LAN deployment —
   and a checkpoint every 2 s of virtual time so restarts exercise the
   checkpoint + replay path, not just full replay. *)
let chaos_config =
  {
    Instance.default_config with
    paxos =
      {
        Paxos.default_config with
        Paxos.heartbeat_period = Time.ms 100;
        election_timeout = Time.ms 300;
        election_jitter = Time.ms 50;
        round_retry = Time.ms 100;
        (* Aggressive compaction: a tiny threshold and small catch-up
           pages so every chaos run exercises the snapshot catch-up and
           pagination paths, not just the steady state. *)
        compaction_threshold = 32;
        catchup_chunk = 64;
        (* Fast suspicion so autoheal scenarios detect a dead member well
           inside the schedule horizon. *)
        suspect_timeout = Time.ms 450;
        (* Shorter than the 300 ms election timeout, as lease safety
           requires. *)
        lease_duration = Time.ms 150;
      };
    checkpoint_period = Time.sec 2;
    (* Small enough that chaos runs actually trim the output log, forcing
       the digest-aligned comparison paths through their paces. *)
    output_keep = 256;
  }

let run ?(cfg = chaos_config) ~seed scenario =
  (* A recorder that retains nothing: the report sources commit latency
     from the [req.lifecycle] spans, paired by id. *)
  let trace = Trace.create ~retain:false () in
  let opened = Hashtbl.create 256 and lifecycles = ref [] in
  Trace.add_sink trace (fun ev ->
      match (ev.Trace.event, ev.Trace.ph) with
      | Trace.Lifecycle _, Trace.Async_begin id -> Hashtbl.replace opened id ev.Trace.ts
      | Trace.Lifecycle _, Trace.Async_end id when Hashtbl.mem opened id ->
        lifecycles := (ev.Trace.ts - Hashtbl.find opened id) :: !lifecycles;
        Hashtbl.remove opened id
      | _ -> ());
  let cluster = Cluster.create ~seed ~cfg ~trace ~server:Ledger.server () in
  let eng = Cluster.engine cluster in
  let d =
    {
      cluster;
      eng;
      nemesis = Rng.create ((seed * 1_000_003) + 0x5eed);
      boot_members = Cluster.members cluster;
      crashed = [];
      ever_crashed = Hashtbl.create 8;
      injected = [];
      violations = [];
      elections = [];
      seen_views = Hashtbl.create 32;
      oracle = Invariants.create ();
      sampler_on = true;
      primary_cut = None;
      fence_healed = false;
    }
  in
  Cluster.start cluster;
  sampler_loop d;
  (* give the cluster 200 ms to come up before the clock-zero faults *)
  Cluster.run ~until:(Time.ms 200) cluster;
  let t0 = Engine.now eng in
  List.iter
    (fun { at; fault } -> Engine.at eng (t0 + at) (fun () -> apply_fault d fault))
    (materialize d scenario.schedule);
  (* the workload runs across the whole fault window *)
  let target = Target.cluster cluster ~port:80 in
  let ledger = Ledger.client () in
  let fast_read_node ~node ~from =
    Ledger.fast_get_node (Cluster.world cluster) ~timeout:(Time.ms 500)
      ~read_port:cfg.Instance.read_port ~node ~from
  in
  (* Read burst: observer threads cycling over the member list, reading
     through each replica's fast path.  They snapshot the acked-write set
     before every read — the obligation a lease read must meet. *)
  let read_obs = ref [] (* newest first *) in
  let readers_on = ref true in
  if scenario.read_clients > 0 then
    for rc = 1 to scenario.read_clients do
      Engine.spawn eng ~name:(Printf.sprintf "chaos-reader%d" rc) (fun () ->
          let from = Printf.sprintf "chaos-r%d" rc in
          let rec loop n =
            if !readers_on then begin
              (match Cluster.members cluster with
              | [] -> ()
              | nodes ->
                let node = List.nth nodes (n mod List.length nodes) in
                let acked_before = Ledger.acked_ids ledger in
                (match fast_read_node ~node ~from with
                | Some (Proxy.Served r) ->
                  read_obs :=
                    {
                      o_node = node;
                      o_mode = r.Proxy.mode;
                      o_epoch = r.Proxy.epoch;
                      o_wm = r.Proxy.watermark;
                      o_ids = Ledger.ids_of_reply r.Proxy.value;
                      o_acked_before =
                        (match r.Proxy.mode with
                        | `Lease -> acked_before
                        | `Backup _ -> []);
                    }
                    :: !read_obs
                | Some (Proxy.Rejected | Proxy.Write_required) | None -> ()));
              Engine.sleep eng (Time.ms 15);
              loop (n + 1)
            end
          in
          loop rc)
    done;
  (* Lease-fence prober: once the schedule isolates the primary, wait out
     the lease, then hammer the ex-primary's read port until heal.  The
     partition severs only replica-to-replica links, so the prober still
     reaches the corpse — exactly the dangerous window: a primary that
     can no longer renew against a heartbeat-ack quorum must let its
     lease lapse on its own (within [lease_duration], long before the
     [suspect_timeout] detector would flag the partition), after which
     every fast read it answers must come back [Rejected] or
     bounded-stale, never [`Lease].  [grace] covers an ack already in
     flight when the cut landed: a lease granted an instant before the
     partition stays valid until grant + lease_duration. *)
  let fence_attempts = ref 0 in
  let fence_first = ref None in
  if scenario.lease_fence then
    Engine.spawn eng ~name:"lease-fence-probe" (fun () ->
        let lease = cfg.Instance.paxos.Paxos.lease_duration in
        let grace = Time.ms 10 in
        let rec loop () =
          if not d.fence_healed then begin
            (match d.primary_cut with
            | Some (cut, p) when Engine.now eng >= cut + lease + grace -> (
              incr fence_attempts;
              if !fence_first = None then fence_first := Some (Engine.now eng);
              match fast_read_node ~node:p ~from:"chaos-fence" with
              | Some (Proxy.Served r) when r.Proxy.mode = `Lease ->
                violate d "lease-fencing"
                  (Printf.sprintf
                     "ex-primary %s served a lease read %s after the cut \
                      (lease is %s)"
                     p
                     (Time.to_string (Engine.now eng - cut))
                     (Time.to_string lease))
              | Some (Proxy.Served _ | Proxy.Rejected | Proxy.Write_required)
              | None ->
                ())
            | Some _ | None -> ());
            Engine.sleep eng (Time.ms 10);
            loop ()
          end
        in
        loop ());
  let handle =
    Loadgen.run ~name:"chaos" ~seed ~think:scenario.think ~retries:6
      ~retry_backoff:(Time.ms 100) ~clients:scenario.clients ~requests:scenario.requests
      ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 120) target handle;
  let load = handle.Loadgen.collect () in
  (* play out any schedule tail the workload outlived, then stop injecting *)
  Cluster.run ~until:(t0 + scenario.duration) cluster;
  (* heal the network (crashed replicas stay down: liveness must hold with
     whatever quorum survived) and let the survivors settle *)
  if Fabric.partitions (Cluster.fabric cluster) > 0 then begin
    Fabric.heal (Cluster.fabric cluster);
    note d Trace.Heal "(end of schedule)"
  end;
  d.fence_healed <- true;
  Fabric.set_loss (Cluster.fabric cluster) 0.0;
  Fabric.set_latency (Cluster.fabric cluster) ~base:(Time.us 40) ~jitter:(Time.us 20);
  Cluster.run ~until:(Engine.now eng + scenario.settle) cluster;
  (* the read burst kept observing through heal + settle; stop it before
     the liveness probe so the audit set is fixed *)
  readers_on := false;
  (* liveness probe: with the network healed and a quorum up, every
     request must succeed *)
  let probe =
    Loadgen.run ~name:"probe" ~seed ~retries:8 ~retry_backoff:(Time.ms 100) ~clients:2
      ~requests:20 ~request:(Ledger.request ledger) target
  in
  Loadgen.drive ~timeout:(Time.sec 60) target probe;
  let probe_r = probe.Loadgen.collect () in
  (* A restarted replica replays its backlog through the DMT at simulated
     speed, so its server state trails the paxos applied index by virtual
     seconds.  Poll at fixed virtual-time steps (bounded, deterministic)
     until every live ledger agrees and holds every acked write; if they
     still disagree at the deadline, the convergence invariants fail. *)
  let converged () =
    match Cluster.instances cluster with
    | [] -> false
    | (_, i0) :: rest ->
      let s0 = Invariants.state_of i0 in
      List.for_all (fun (_, i) -> Invariants.state_of i = s0) rest
      && snd (Invariants.acked_durability cluster ~acked:(Ledger.acked_ids ledger))
         = None
  in
  let deadline = Engine.now eng + Time.sec 30 in
  Cluster.run ~until:(Engine.now eng + Time.ms 200) cluster;
  Loadgen.step_until eng ~step:(Time.ms 100) ~deadline converged;
  sample d;
  d.sampler_on <- false;
  let sum f =
    List.fold_left (fun acc (_, inst) -> acc + f inst.Instance.paxos) 0
      (Cluster.instances cluster)
  in
  let snapshots_installed = sum (fun p -> (Paxos.stats p).Paxos.snapshots_installed) in
  let invariants =
    final_checks d ~ledger ~probe_errors:probe_r.Loadgen.errors
      ~reads:(List.rev !read_obs)
    @
    (if scenario.expect_snapshot then
       [ ( "snapshot-recovery",
           if snapshots_installed >= 1 then None
           else
             Some
               "no snapshot was installed: the lagging replica recovered without \
                the state-transfer path this scenario exists to exercise" ) ]
     else [])
    @
    if scenario.lease_fence then
      [ ( "lease-fencing",
          match first_violation d "lease-fencing" with
          | Some _ as v -> v
          | None -> (
            if !fence_attempts = 0 then
              Some
                "vacuous: the fence prober never reached the partitioned \
                 ex-primary"
            else
              (* the satellite claim: the lease lapses on its own, before
                 the failure detector would even suspect the partition —
                 so the clean probe window must open pre-suspect-timeout *)
              match (!fence_first, d.primary_cut) with
              | Some first, Some (cut, _)
                when first >= cut + cfg.Instance.paxos.Paxos.suspect_timeout ->
                Some
                  "probe window opened after suspect_timeout: the run cannot \
                   show the lease lapsed before failure detection"
              | _ -> None) ) ]
    else []
  in
  {
    r_scenario = scenario.name;
    r_seed = seed;
    injected = List.rev d.injected;
    elections = List.rev d.elections;
    r_abdications = sum (fun p -> (Paxos.stats p).Paxos.abdications);
    r_catchup_installed = sum (fun p -> (Paxos.stats p).Paxos.catchup_installed);
    r_torn_discarded = sum (fun p -> (Paxos.stats p).Paxos.wal_torn_discarded);
    r_compactions = sum (fun p -> (Paxos.stats p).Paxos.compactions);
    r_snapshots_installed = snapshots_installed;
    r_reconfigs =
      List.fold_left
        (fun acc (_, inst) -> max acc (Paxos.stats inst.Instance.paxos).Paxos.reconfigs)
        0 (Cluster.instances cluster);
    r_epoch = Cluster.current_epoch cluster;
    r_fenced_drops = sum (fun p -> (Paxos.stats p).Paxos.fenced_drops);
    r_lease_reads =
      List.fold_left
        (fun acc (_, inst) ->
          acc + (Crane_core.Proxy.stats inst.Instance.proxy).Proxy.lease_reads)
        0 (Cluster.instances cluster);
    r_backup_reads =
      List.fold_left
        (fun acc (_, inst) ->
          acc + (Crane_core.Proxy.stats inst.Instance.proxy).Proxy.backup_reads)
        0 (Cluster.instances cluster);
    r_lease_rejects =
      List.fold_left
        (fun acc (_, inst) ->
          acc + (Crane_core.Proxy.stats inst.Instance.proxy).Proxy.lease_rejects)
        0 (Cluster.instances cluster);
    r_read_obs = List.length !read_obs;
    r_seq_peak =
      List.fold_left
        (fun acc (_, inst) ->
          max acc (Crane_core.Paxos_seq.max_depth (Crane_core.Vhost.seq inst.Instance.vhost)))
        0 (Cluster.instances cluster);
    r_seq_peak_view =
      (* the view attribution of whichever replica holds the peak *)
      List.fold_left
        (fun ((best, _) as acc) (_, inst) ->
          let seq = Crane_core.Vhost.seq inst.Instance.vhost in
          let d = Crane_core.Paxos_seq.max_depth seq in
          if d > best then (d, Crane_core.Paxos_seq.max_depth_view seq) else acc)
        (0, 0) (Cluster.instances cluster)
      |> snd;
    r_checkpoints_skipped =
      List.fold_left
        (fun acc (_, inst) ->
          acc + Crane_checkpoint.Manager.checkpoints_skipped inst.Instance.manager)
        0 (Cluster.instances cluster);
    r_acked = Ledger.acked_count ledger;
    r_ok = List.length load.Loadgen.latencies;
    r_errors = load.Loadgen.errors;
    r_retries = load.Loadgen.retries;
    r_latency = (if !lifecycles = [] then None else Some (Metrics.summarize !lifecycles));
    probe_ok = List.length probe_r.Loadgen.latencies;
    probe_errors = probe_r.Loadgen.errors;
    final_primary = Cluster.primary_node cluster;
    invariants;
  }

(* ------------------------------------------------------------------ *)
(* Built-in scenario suite                                             *)

let base =
  {
    name = "";
    about = "";
    schedule = Timed [];
    duration = Time.sec 4;
    settle = Time.sec 1;
    clients = 4;
    requests = 160;
    think = Time.ms 40;
    read_clients = 0;
    expect_snapshot = false;
    lease_fence = false;
  }

let scenarios =
  [
    { base with
      name = "primary-crash";
      about = "kill the primary under load, restart it from a checkpoint";
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Crash_primary { torn_wal = false } };
            { at = Time.ms 2500; fault = Restart_one } ] };
    { base with
      name = "backup-crash";
      about = "kill a backup under load, restart it from a checkpoint";
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Crash_backup { torn_wal = false } };
            { at = Time.ms 2500; fault = Restart_one } ] };
    { base with
      name = "torn-wal";
      about = "crash the primary mid-WAL-append; recovery must discard the torn tail";
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Crash_primary { torn_wal = true } };
            { at = Time.ms 2500; fault = Restart_one } ] };
    { base with
      name = "partition-primary";
      about = "isolate the primary (both directions), heal after the new election";
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Partition_primary };
            { at = Time.ms 2500; fault = Heal } ] };
    { base with
      name = "asym-partition";
      about = "block traffic towards the primary only: backups still hear heartbeats, \
               so progress depends on primary abdication";
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Partition_oneway_primary };
            { at = Time.ms 2500; fault = Heal } ] };
    { base with
      name = "loss-latency";
      about = "packet-loss window, then a latency spike";
      duration = Time.sec 5;
      schedule =
        Timed
          [ { at = Time.sec 1;
              fault = Loss_window { loss = 0.2; duration = Time.sec 1 } };
            { at = Time.ms 2500;
              fault =
                Latency_spike
                  { base = Time.us 500; jitter = Time.us 250; duration = Time.sec 1 } } ] };
    { base with
      name = "composed";
      about = "partition the primary during a checkpoint, heal, crash the new \
               primary, restart it";
      duration = Time.sec 6;
      requests = 200;
      schedule =
        Timed
          [ { at = Time.ms 2100; fault = Partition_primary };
            { at = Time.ms 3300; fault = Heal };
            { at = Time.sec 4; fault = Crash_primary { torn_wal = false } };
            { at = Time.sec 5; fault = Restart_one } ] };
    { base with
      name = "compaction-catchup";
      about = "crash a non-checkpoint backup early, run thousands of events past \
               the compaction watermark, then restart it: the freed log prefix \
               forces recovery through snapshot transfer + chunked catch-up";
      duration = Time.sec 8;
      settle = Time.sec 2;
      clients = 8;
      requests = 2400;
      think = Time.ms 3;
      expect_snapshot = true;
      schedule =
        Timed
          [ (* replica2 is the checkpoint backup; killing replica3 leaves
               checkpointing alive while the victim's log falls far behind *)
            { at = Time.ms 400; fault = Crash_node "replica3" };
            { at = Time.sec 7; fault = Restart_one } ] };
    { base with
      name = "random";
      about = "seeded probabilistic nemesis: faults drawn from the full pool";
      duration = Time.sec 6;
      requests = 200;
      schedule = Probabilistic { faults = 6; start = Time.ms 500; stop = Time.sec 5 } };
    { base with
      name = "reconfig-partition";
      about = "isolate a replica, then reconfigure it out of the membership while \
               it is unreachable: the joint quorum spans old and new configs, and \
               on heal the stale replica must fence itself instead of voting";
      duration = Time.sec 5;
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Partition_node "replica3" };
            { at = Time.ms 1400;
              fault = Replace { dead = "replica3"; fresh = "replica4" } };
            { at = Time.ms 3200; fault = Heal } ] };
    { base with
      name = "replace-catchup";
      about = "crash a backup early, run thousands of events past the compaction \
               watermark, then replace it with a fresh replica: the joiner's empty \
               log is behind the freed prefix, so bootstrap must come through \
               snapshot transfer + chunked catch-up";
      duration = Time.sec 8;
      settle = Time.sec 2;
      clients = 8;
      requests = 2400;
      think = Time.ms 3;
      expect_snapshot = true;
      schedule =
        Timed
          [ { at = Time.ms 400; fault = Crash_node "replica3" };
            (* past the first completed checkpoint + compaction round, so
               the joiner's bootstrap cannot be served from the log *)
            { at = Time.sec 7;
              fault = Replace { dead = "replica3"; fresh = "replica4" } } ] };
    { base with
      name = "lease-partition";
      about = "isolate the lease-holding primary with read traffic flowing: its \
               lease must lapse within lease_duration of the cut — before the \
               suspect timeout would even notice — and no fast read on the \
               ex-primary may be served in lease mode until heal";
      duration = Time.sec 4;
      read_clients = 2;
      lease_fence = true;
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Partition_primary };
            { at = Time.sec 3; fault = Heal } ] };
    { base with
      name = "stale-read-viewchange";
      about = "kill the lease-holding primary mid-read-burst, then reconfigure \
               the corpse out (a fencing window): no read may be staler than \
               its returned watermark, and lease reads stay linearizable";
      duration = Time.sec 5;
      settle = Time.sec 2;
      requests = 200;
      read_clients = 3;
      schedule =
        Timed
          [ { at = Time.sec 1; fault = Crash_primary { torn_wal = false } };
            { at = Time.ms 2500; fault = Replace_crashed { fresh = "replica4" } } ] };
    { base with
      name = "kill-autoheal-kill";
      about = "arm the failure detector, then kill two replicas in sequence: each \
               loss must be detected and replaced automatically, ending at epoch 2 \
               with a healthy quorum of survivors and spawned replacements";
      duration = Time.sec 6;
      settle = Time.sec 2;
      requests = 200;
      schedule =
        Timed
          [ { at = Time.ms 100; fault = Autoheal };
            { at = Time.ms 800; fault = Crash_node "replica3" };
            { at = Time.ms 3200; fault = Crash_node "replica2" } ] };
  ]

let find_scenario name = List.find_opt (fun s -> s.name = name) scenarios
