(** The PAXOS consensus component (paper §2.1, §5.1).

    A re-implementation of the well-known, concise viewstamped approach
    the paper builds on ("Paxos made practical", Mazieres): in the normal
    case only the primary invokes consensus, so a decision costs one round
    trip to a quorum plus a durable log write; in exceptional cases a
    three-step leader election resolves conflicts:

    + backups propose a new view (a standard two-phase consensus),
    + the proposer that wins the view proposes itself as primary
      candidate (another two-phase consensus, carrying the merged log),
    + the new leader announces itself as the new primary.

    Values are opaque strings (CRANE serializes socket-call records into
    them); each decided value carries a global, monotonically increasing
    index that checkpoints reference.  [on_commit] fires on {e every}
    replica, in index order, exactly once per index per incarnation.

    Failure detection follows the paper: the primary heartbeats every
    second; backups that miss heartbeats for three seconds elect a new
    leader (with per-node jitter to avoid duels).

    {b Core and driver.}  The protocol lives in {!Paxos_core}, a state
    machine with no I/O: [Paxos_core.step] takes one input (a message, a
    timer, a finished fsync, a submit) and hands each effect to the host
    as an action value (send, persist, truncate, arm a timer, deliver an
    index, demote, ...), in order.  Recovery is a pure function of the
    durable records.  This module is the driver, the only consensus code
    that touches the engine, the fabric and the WAL: it runs each action
    the moment the core produces it, so an upcall sees the state as of
    that action and may re-enter (the proxy submits from [on_commit]). *)

type t

val paxos_port : int
(** Fabric port the consensus component binds on every member. *)

type config = Paxos_core.config = {
  heartbeat_period : Crane_sim.Time.t;  (** default 1 s *)
  election_timeout : Crane_sim.Time.t;  (** default 3 s *)
  election_jitter : Crane_sim.Time.t;  (** extra per-node random delay, default 300 ms *)
  round_retry : Crane_sim.Time.t;  (** view-change retry backoff, default 500 ms *)
  compaction_threshold : int;
      (** entries above the compaction base before the primary coordinates
          a compaction round; [<= 0] disables compaction entirely.
          Default 1024 *)
  catchup_chunk : int;
      (** max committed entries per catch-up response page, default 256 *)
  suspect_timeout : Crane_sim.Time.t;
      (** failure detector: a member silent for this long is reported by
          {!suspects} (primary-side input to automated replacement).
          Default 5 s *)
  lease_duration : Crane_sim.Time.t;
      (** leader lease: how long a quorum of heartbeat acks entitles the
          primary to serve linearizable reads locally, anchored at the
          heartbeat's send instant.  Must be (and is clamped at creation
          to stay) shorter than [election_timeout], so the promise a
          backup makes by acking — withholding election votes for this
          long — always expires before an election it stalled can
          succeed.  Default 1.5 s *)
  wrap : Paxos_core.step -> Paxos_core.step;
      (** wraps every step of this replica's core, default the identity:
          a checker wraps a replica to filter its inputs or actions *)
}

val default_config : config

val create :
  ?config:config ->
  fabric:Crane_net.Fabric.t ->
  rng:Crane_sim.Rng.t ->
  wal:Crane_storage.Wal.t ->
  members:Crane_net.Fabric.node list ->
  node:Crane_net.Fabric.node ->
  group:Crane_sim.Engine.group ->
  unit ->
  t
(** A consensus component for [node].  If [wal] holds records from a
    previous incarnation, the log and committed index are recovered from
    it.  All timers and message handling die with [group]. *)

val start : t -> ?as_primary:bool -> unit -> unit
(** Arm timers and (on the initial primary — by convention the first
    member — or when [as_primary] is set) start heartbeating. *)

val node : t -> Crane_net.Fabric.node
val view : t -> int
val is_primary : t -> bool

val primary : t -> Crane_net.Fabric.node option
(** This node's current belief about who leads. *)

val submit : t -> string list -> (int * int) option
(** Propose values as one consensus round and return the inclusive
    [(lo, hi)] range of global indices they took, in list order — the
    trace ids request spans are keyed by.  Decisions are reported through
    [handlers.on_commit].  Every list, one value or many, is one round:
    one Accept broadcast carrying the range, one Accept_ok per replica,
    and one group-commit WAL fsync ({!Crane_storage.Wal.append_async}).
    A longer list is paper-faithful batching (CRANE already amortizes
    ordering per {e burst}; this amortizes the transport too): each value
    still gets its own index, so the decision sequence is exactly what
    one-value calls in list order would have produced.  Returns [None]
    (and proposes nothing) if the list is empty or this node does not
    believe itself primary. *)

(** {2 Handlers}

    Both application callbacks are registered atomically, so a component
    can never run with a half-registered callback set (the old
    [on_commit]/[on_demote] post-hoc setters were order-sensitive). *)

type handlers = {
  on_commit : index:int -> string -> unit;
      (** Fires on {e every} replica, in index order, exactly once per
          index per incarnation — batched proposals are unpacked and
          delivered per entry. *)
  on_demote : unit -> unit;
      (** Fires whenever this node stops believing itself primary —
          deposed by a higher view, or abdicating after losing quorum
          contact.  The proxy uses it to shed clients so they retry
          against the new primary. *)
  on_config : epoch:int -> Crane_net.Fabric.node list -> unit;
      (** A new configuration activated on this replica: [epoch] and the
          full member list now in force.  Fires on every replica that
          applies (or snapshot-adopts) the Reconfig. *)
  on_fence : epoch:int -> unit;
      (** This replica was removed by configuration [epoch] (learned
          either by applying the Reconfig or from an authoritative
          rejection by a member): it has shed any primaryship and will
          neither vote nor serve again.  The hosting layer should retire
          the instance. *)
}

val set_handlers : t -> handlers -> unit
(** Install all callbacks (one registration per component). *)

(** {2 Live membership reconfiguration}

    Membership is a replicated value: a Reconfig is an ordinary log entry
    (a tagged [(epoch, members)] payload) that flows through the same
    Accept/ack/commit machinery as client commands.  From the moment the
    entry enters a replica's log until it activates, every quorum check
    (commits {e and} elections) requires a majority of both the old and
    the new configuration — joint consensus, so no two configurations can
    decide independently during the handover.  Activation happens when
    the entry is applied; from then on each replica stamps the new epoch
    on every message, and members drop (with an authoritative [Fenced]
    reply) stale-epoch traffic from nodes outside the configuration, so
    departed replicas can neither vote nor serve. *)

val submit_reconfig : t -> Crane_net.Fabric.node list -> int option
(** Propose replacing the membership with the given list (epoch + 1).
    Returns the log index of the Reconfig entry, or [None] if this node
    is not primary, another reconfiguration is still pending, or the list
    equals the current membership. *)

val members : t -> Crane_net.Fabric.node list
(** The membership of the current configuration epoch. *)

val epoch : t -> int
(** Current configuration epoch (0 = the boot-time configuration). *)

val fenced : t -> bool
(** True once this replica learned it was reconfigured out. *)

val reconfig_pending : t -> bool
(** True while a Reconfig entry sits in the log uncommitted (the joint
    quorum window). *)

val pending : t -> int
(** {!stats.pending} without building the record: the proxy reads it on
    every time-bubble request. *)

val suspects : t -> Crane_net.Fabric.node list
(** Failure detector output: members not heard from for
    [suspect_timeout].  Meaningful on the primary (which hears every live
    member's heartbeat acks); always [] on backups and fenced nodes. *)

val is_config_value : string -> bool
(** True for Reconfig payloads.  Replay paths that feed
    {!get_committed_range} into the application must skip these — live
    delivery already does (a Reconfig activates instead of reaching
    [on_commit]). *)

(** {2 Leader leases (read fast path)}

    Every heartbeat round is numbered; when a quorum of the current
    configuration acks the round, the primary holds a read lease from
    the round's send instant for [config.lease_duration].  Acking is a
    promise: the backup refuses View_change/Candidate votes until the
    window passes, so no new primary can be seated (every election
    quorum intersects the acking quorum) while a lease is live.  The
    lease is revoked on demotion, fencing, abdication and configuration
    activation, and is never valid during a joint-quorum window. *)

val lease_valid : t -> bool
(** True iff this node may serve a linearizable read locally right now:
    unfenced primary, no reconfiguration pending, lease clock unexpired. *)

val committed : t -> int
(** Highest committed index (0 = nothing yet). *)

val applied : t -> int

val get_committed_range : t -> lo:int -> hi:int -> string list
(** Committed values with indices in [lo..hi] (for checkpoint replay).
    Indices at or below {!base} are compacted away and yield []. *)

(** {2 Checkpoint-coordinated log compaction (§5.2)}

    The checkpoint component hands each application snapshot to consensus
    via {!offer_snapshot}; the receiving replica disseminates the blob to
    its peers.  The primary tracks how far every live replica has applied
    (piggybacked on heartbeat acks) and, once
    [min applied - base >= compaction_threshold], broadcasts a watermark:
    each replica drops log/ack entries at or below it and truncates its
    WAL to a crash-safe [(watermark, snapshot)] header plus suffix
    ({!Crane_storage.Wal.truncate_to}).  Catch-up below the base serves
    the snapshot instead of log entries — recovery of a long-lagging
    replica costs O(delta since checkpoint), not O(history). *)

val base : t -> int
(** Compaction base: highest index dropped from the log (0 = nothing
    compacted).  Always [<= applied]. *)

val snapshot : t -> (int * string) option
(** Latest application snapshot held: [(index, opaque blob)]. *)

val offer_snapshot : t -> index:int -> blob:string -> unit
(** Adopt a fresh application snapshot covering all entries [<= index]
    and push it to peers (bulk transfer cost charged through the fabric).
    Older offers than the held snapshot are ignored. *)

type compaction_hooks = {
  install_snapshot : index:int -> string -> unit;
      (** a snapshot arrived via catch-up and this replica is about to
          fast-forward past [index]: restore application state from the
          blob (no-op if an out-of-band restore already covered it) *)
  on_compact : watermark:int -> unit;
      (** the local log just compacted to [watermark]: the application
          may free its own bounded-history structures (output log) *)
}

val set_compaction_hooks : t -> compaction_hooks -> unit
(** Default hooks do nothing — plain consensus users (tests, benches)
    need not care. *)

(** {2 Statistics}

    One typed record behind a single accessor, replacing the former nine
    flat per-metric getters. *)

type stats = {
  decisions : int;  (** consensus decisions applied on this node *)
  view_changes : int;  (** elections this node won *)
  abdications : int;
      (** times this node stepped down as primary after hearing no peer
          for election_timeout — the asymmetric-partition escape hatch:
          backups on the far side of a one-way link still receive
          heartbeats and would otherwise never elect *)
  catchup_installed : int;
      (** log entries first learned through catch-up responses (the
          recovery "range replayed" of §5.2) *)
  wal_torn_discarded : int;
      (** torn or undecodable WAL tail records discarded during recovery *)
  pending : int;
      (** proposed-but-uncommitted entries ([last_index - committed]): the
          depth of the consensus pipeline.  The proxy uses it as a
          backpressure signal for time bubbles — when commits stall, an
          unthrottled bubble request loop would append thousands of junk
          entries that the whole cluster must later replay *)
  last_election_duration : Crane_sim.Time.t option;
      (** wall-clock (virtual) time of the most recent successful election
          this node won, from first view-change message to new-view
          announcement — the paper's 1.97 ms figure *)
  batches_committed : int;
      (** proposed batches whose whole index range has committed *)
  events_per_batch : (int * int) list;
      (** histogram of committed batch sizes: [(size, batches)] pairs in
          ascending size order (a one-value {!submit} counts as size 1; sizes are
          clamped to {!histogram_cap} so the table is bounded — render
          the top bucket as "64+", it is a sum over all larger sizes) *)
  max_batch : int;
      (** largest committed batch actually observed, unclamped — the
          truth the capped histogram's top bucket hides *)
  compactions : int;  (** compaction rounds applied on this node *)
  snapshots_installed : int;
      (** snapshots this node installed via catch-up (fast-forwarding
          past its missing prefix) *)
  log_resident : int;  (** entries currently resident in the log table *)
  log_bytes : int;
      (** bytes the log's record arena holds: resident entries plus the
          copies a rewrite left behind, until compaction drops them *)
  peak_log_resident : int;
      (** high-water mark of resident log entries — the boundedness
          metric BENCH_recovery.json plots against history length *)
  acks_resident : int;  (** entries currently resident in the ack table *)
  epoch : int;  (** configuration epoch in force on this node *)
  reconfigs : int;  (** configuration activations on this node *)
  fenced_drops : int;
      (** stale-epoch messages from non-members this node rejected *)
  leases_held : int;
      (** lease acquisitions (invalid-to-valid transitions) on this node
          — heartbeat-round renewals of a live lease do not count *)
}

val stats : t -> stats

val histogram_cap : int
(** bucket cap of {!stats.events_per_batch}: sizes at or above it fold
    into one top bucket (render it as ["<cap>+"]) *)
