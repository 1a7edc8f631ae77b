module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Arena = Crane_storage.Arena
module Trace = Crane_trace.Trace

(* Mutation-testing switch (Crane-MC self-check): each non-default value
   reintroduces a previously-fixed protocol bug in this instance only, so
   the model checker can prove it would have caught the regression. *)
type mutation =
  | No_mutation
  | Hole_backfill
      (** regress the [set_committed] fix: only run the apply loop when
          the commit index moved, so a log hole filled {e below} the
          commit index leaves the replica wedged with
          [applied < committed] *)
  | Dup_accept
      (** regress the duplicate-Accept fix: silently drop a retransmitted
          Accept instead of re-acking it, so a lost [Accept_ok] stalls
          the index forever when no other acceptor can form the quorum *)

type config = {
  heartbeat_period : Time.t;
  election_timeout : Time.t;
  election_jitter : Time.t;
  round_retry : Time.t;
  compaction_threshold : int;
  catchup_chunk : int;
  suspect_timeout : Time.t;
      (** failure detector: a member silent this long is suspected dead
          (primary-side input to automated replacement) *)
  lease_duration : Time.t;
      (** leader lease: how long a quorum of heartbeat acks entitles the
          primary to serve reads locally, anchored at heartbeat send time.
          Must be shorter than [election_timeout] (clamped at creation if
          not) so a lease can never outlive the silence a new election
          requires *)
  mutation : mutation;
}

let default_config =
  {
    heartbeat_period = Time.sec 1;
    election_timeout = Time.sec 3;
    election_jitter = Time.ms 300;
    round_retry = Time.ms 500;
    compaction_threshold = 1024;
    catchup_chunk = 256;
    suspect_timeout = Time.sec 5;
    lease_duration = Time.ms 1500;
    mutation = No_mutation;
  }

let paxos_port = 1

(* Log entries carried by view-change traffic: (index, view, value). *)
type wire_entry = int * int * string

type Fabric.message +=
  | Accept of { aview : int; lo : int; values : string list; committed : int }
      (** one round for a whole batch: values occupy indices [lo..lo+N-1] *)
  | Accept_ok of { aview : int; lo : int; hi : int }
  | Commit of { cview : int; committed : int }
  | Heartbeat of { hview : int; hseq : int; committed : int }
  | Heartbeat_ok of { hview : int; hseq : int; h_applied : int }
  | View_change of { nview : int; cand_committed : int }
  | View_change_ok of
      { nview : int; tail : wire_entry list; committed : int; vbase : int }
  | Candidate of { nview : int }
  | Candidate_ok of { nview : int }
  | New_view of { nview : int; entries : wire_entry list; committed : int }
  | Catchup_req of { from_index : int }
  | Catchup_resp of { rview : int; primary : Fabric.node; entries : (int * string) list; committed : int }
  | Snapshot_push of { s_index : int; blob : string }
      (** checkpoint node disseminates the latest application snapshot *)
  | Snapshot_resp of
      { s_index : int;
        blob : string;
        s_committed : int;
        s_epoch : int;
        s_members : Fabric.node list
      }
      (** two-tier catch-up: the requested prefix is compacted away.  The
          serving replica's configuration rides along so a fresh joiner
          bootstrapping from a snapshot learns the membership its state
          was produced under. *)
  | Compact of { cwatermark : int }
      (** primary-coordinated watermark: drop log/ack entries <= it *)
  | Epoched of { e : int; inner : Fabric.message }
      (** every paxos message is stamped with the sender's config epoch:
          receivers fence traffic from departed members *)
  | Fenced of { f_epoch : int }
      (** authoritative rejection: the sender is not a member of config
          epoch [f_epoch] — stop voting and serving *)

type handlers = {
  on_commit : index:int -> string -> unit;
  on_demote : unit -> unit;
  on_config : epoch:int -> Fabric.node list -> unit;
      (** a new configuration just activated on this replica *)
  on_fence : epoch:int -> unit;
      (** this replica was removed by config [epoch]: it may neither vote
          nor serve again *)
}

let null_handlers =
  {
    on_commit = (fun ~index:_ _ -> ());
    on_demote = (fun () -> ());
    on_config = (fun ~epoch:_ _ -> ());
    on_fence = (fun ~epoch:_ -> ());
  }

type compaction_hooks = {
  install_snapshot : index:int -> string -> unit;
  on_compact : watermark:int -> unit;
}

let null_hooks =
  { install_snapshot = (fun ~index:_ _ -> ()); on_compact = (fun ~watermark:_ -> ()) }

type election = {
  eview : int;
  mutable oks : Fabric.node list; (* view-change responders, self included *)
  mutable tails : (Fabric.node * wire_entry list * int) list;
  mutable cand_oks : Fabric.node list;
  mutable phase : [ `Collect | `Candidate ];
  started_at : Time.t;
}

type t = {
  cfg : config;
  fabric : Fabric.t;
  eng : Engine.t;
  rng : Rng.t;
  wal : Wal.t;
  (* Membership is a replicated value: [members] is the configuration of
     [epoch], changed only by activating a committed Reconfig entry.
     Between a Reconfig entry entering the log and its activation,
     [pending_members] holds the proposed configuration and every quorum
     check requires a majority of BOTH (joint consensus). *)
  mutable members : Fabric.node list;
  mutable epoch : int;
  mutable pending_members : Fabric.node list option;
  mutable fenced : bool;
  self : Fabric.node;
  group : Engine.group;
  mutable view : int;
  mutable primary : Fabric.node option;
  mutable max_view_seen : int;
  (* Replicated log, dense above the compaction base: slot [i] locates
     index [base + 1 + i] in [store], tagged with its view ([absent] for
     a hole); [resident] counts the present slots. *)
  mutable log : int array;
  mutable store : Arena.t;
  mutable resident : int;
  mutable last_index : int;
  mutable committed : int;
  mutable applied : int;
  acks : (int, Fabric.node list) Hashtbl.t;
  mutable handlers : handlers;
  mutable hooks : compaction_hooks;
  (* Compaction: everything at or below [base] has been dropped from the
     log/acks tables and truncated out of the WAL; [snapshot] is the most
     recent application checkpoint seen (index, opaque blob), which is
     what catch-up serves for requests below [base]. *)
  mutable base : int;
  mutable snapshot : (int * string) option;
  (* Primary-side watermark input: last applied index each peer reported
     in a Heartbeat_ok, with the instant it was heard. *)
  peer_applied : (Fabric.node, int * Time.t) Hashtbl.t;
  (* Failure detector input: last instant each member was heard from at
     all (any message).  [suspects] compares this against
     suspect_timeout. *)
  peer_heard : (Fabric.node, Time.t) Hashtbl.t;
  (* Leader lease (primary side): each heartbeat round is numbered; when
     a quorum acks the current round, the lease extends to that round's
     send instant plus [lease_duration].  Anchoring at send time is
     conservative — every acking backup promised (by refusing election
     votes, see [last_hb_acked]) not to elect past a later instant. *)
  mutable hb_seq : int;
  mutable hb_sent : Time.t;
  mutable hb_acks : Fabric.node list;
  mutable lease_until : Time.t;
  (* Lease promise (backup side): the instant this node last sent a
     Heartbeat_ok.  Until [lease_duration] past it, the node refuses
     election votes — the voter-side half of lease disjointness: any new
     view needs a quorum, every quorum intersects the acking quorum, and
     the intersecting voter waits out the lease it helped grant. *)
  mutable last_hb_acked : Time.t;
  (* Failure detection / election. *)
  mutable last_heartbeat : Time.t;
  (* Last instant any peer was heard from: a primary that loses quorum
     contact for election_timeout abdicates (one-way-partition liveness). *)
  mutable last_peer_contact : Time.t;
  mutable election : election option;
  (* Consecutive View_change deferrals since the last heartbeat from a
     live primary.  Deferring (refreshing our election timer) to another
     node's in-flight election avoids duels, but must be bounded: a
     proposer on the far side of a one-way partition never hears its
     acks and retries forever with higher views, and unbounded deference
     would suppress everyone else's timer and leave the cluster
     leaderless. *)
  mutable vc_defers : int;
  mutable started : bool;
  (* Stats. *)
  mutable decisions : int;
  mutable view_changes : int;
  mutable last_election_duration : Time.t option;
  mutable abdications : int;
  mutable catchup_installed : int;
  mutable wal_torn_discarded : int;
  mutable compactions : int;
  mutable snapshots_installed : int;
  mutable peak_log : int;
  mutable reconfigs : int;
  mutable fenced_drops : int;
  mutable leases_held : int;
  (* Batching accounting (proposer side): proposed batches waiting for
     their whole index range to commit, oldest first, plus the committed
     histogram. *)
  open_batches : (int * int) Queue.t; (* (hi, size) *)
  mutable batches_committed : int;
  batch_sizes : (int, int) Hashtbl.t; (* size -> committed batches *)
  mutable max_batch : int; (* largest committed batch, unclamped *)
}

type stats = {
  decisions : int;
  view_changes : int;
  abdications : int;
  catchup_installed : int;
  wal_torn_discarded : int;
  pending : int;
  last_election_duration : Time.t option;
  batches_committed : int;
  events_per_batch : (int * int) list;
  max_batch : int;
  compactions : int;
  snapshots_installed : int;
  log_resident : int;
  log_bytes : int;
  peak_log_resident : int;
  acks_resident : int;
  epoch : int;
  reconfigs : int;
  fenced_drops : int;
  leases_held : int;
}

let node t = t.self
let view t = t.view
let primary t = t.primary
let is_primary t = (not t.fenced) && t.primary = Some t.self
let committed t = t.committed
let applied t = t.applied
let base t = t.base
let snapshot t = t.snapshot
let members (t : t) = t.members
let epoch (t : t) = t.epoch
let fenced (t : t) = t.fenced
let reconfig_pending (t : t) = t.pending_members <> None
let pending (t : t) = t.last_index - t.committed
let set_handlers t handlers = t.handlers <- handlers
let set_compaction_hooks t hooks = t.hooks <- hooks

let absent = -1

let log_loc t idx =
  let i = idx - t.base - 1 in
  if i < 0 || i >= Array.length t.log then absent else t.log.(i)

let log_view t idx =
  let loc = log_loc t idx in
  if loc = absent then absent else Arena.tag t.store loc

let log_mem t idx = log_loc t idx <> absent

(* Only for a present index. *)
let log_value t idx = Arena.get t.store (log_loc t idx)

let log_set t idx view value =
  let i = idx - t.base - 1 in
  let cap = Array.length t.log in
  if i >= cap then begin
    let log = Array.make (max (i + 1) (max 64 (cap + (cap / 2)))) absent in
    Array.blit t.log 0 log 0 cap;
    t.log <- log
  end;
  if t.log.(i) = absent then t.resident <- t.resident + 1;
  t.log.(i) <- Arena.add t.store ~tag:view value

(* Drop every index up to [wm] and raise [base] to it.  The suffix moves
   into an array and a store sized for it, freeing the prefix. *)
let release_prefix t wm =
  if wm > t.base then begin
    let cap = Array.length t.log in
    let shift = min (wm - t.base) cap in
    for i = 0 to shift - 1 do
      if t.log.(i) <> absent then t.resident <- t.resident - 1
    done;
    let keep = max 0 (min (cap - shift) (t.last_index - wm)) in
    let kept = Array.sub t.log shift keep and old = t.store in
    let span n loc = if loc = absent then n else n + Arena.span old loc in
    t.store <- Arena.create ~size:(Array.fold_left span 0 kept) ();
    let copy loc = if loc = absent then absent else Arena.add t.store ~tag:(Arena.tag old loc) (Arena.get old loc) in
    t.log <- Array.map copy kept;
    t.base <- wm
  end

let stats (t : t) : stats =
  {
    decisions = t.decisions;
    view_changes = t.view_changes;
    abdications = t.abdications;
    catchup_installed = t.catchup_installed;
    wal_torn_discarded = t.wal_torn_discarded;
    pending = pending t;
    last_election_duration = t.last_election_duration;
    batches_committed = t.batches_committed;
    events_per_batch =
      Hashtbl.fold (fun size n acc -> (size, n) :: acc) t.batch_sizes []
      |> List.sort compare;
    max_batch = t.max_batch;
    compactions = t.compactions;
    snapshots_installed = t.snapshots_installed;
    log_resident = t.resident;
    log_bytes = Arena.bytes t.store;
    peak_log_resident = t.peak_log;
    acks_resident = Hashtbl.length t.acks;
    epoch = t.epoch;
    reconfigs = t.reconfigs;
    fenced_drops = t.fenced_drops;
    leases_held = t.leases_held;
  }

(* The lease is a pure clock comparison: valid only on an unfenced
   primary outside a joint-quorum window (a pending reconfiguration
   makes "who must promise" ambiguous, so reads fall back to consensus
   until it activates). *)
let lease_valid (t : t) =
  is_primary t && t.pending_members = None && Engine.now t.eng < t.lease_until

let revoke_lease (t : t) =
  t.lease_until <- Time.zero;
  t.hb_acks <- []

let fire_demote t =
  (* A demoted proposer's in-flight batches are void: they may be
     superseded wholesale by the new primary's log merge, so counting
     them as committed later (when the index range happens to fill with
     someone else's values) would corrupt the histogram.  Its lease is
     void too: whatever deposed it holds (or will hold) the quorum. *)
  revoke_lease t;
  Queue.clear t.open_batches;
  t.handlers.on_demote ()

let ep node = { Fabric.node; port = paxos_port }

(* ------------------------------------------------------------------ *)
(* Membership as a replicated value.  A Reconfig is an ordinary log
   entry whose payload is a tagged (epoch, members) pair; it flows
   through the same Accept/ack/commit machinery as client commands and
   activates when applied.  The tag keeps config entries distinguishable
   from opaque application values (whose encodings never start with
   it). *)

let config_tag = "CRANE-CFG:"

let encode_config ~epoch ~members =
  config_tag ^ Marshal.to_string ((epoch, members) : int * Fabric.node list) []

let decode_config v =
  if String.starts_with ~prefix:config_tag v then
    try Some (Marshal.from_string v (String.length config_tag) : int * Fabric.node list)
    with _ -> None
  else None

let is_config_value v = decode_config v <> None

(* Whether a present index holds a config entry, tested in place. *)
let log_is_config t idx =
  let loc = log_loc t idx in
  loc <> absent && Arena.has_prefix t.store loc config_tag

(* Joint consensus: between a Reconfig entering the log and its
   activation, progress (commits AND elections) needs a majority of the
   old configuration and a majority of the proposed one.  Either
   majority alone could otherwise commit conflicting histories during
   the handover window. *)
let quorum_reached (t : t) voters =
  let maj cfg = (List.length cfg / 2) + 1 in
  let tally cfg = List.length (List.filter (fun n -> List.mem n cfg) voters) in
  tally t.members >= maj t.members
  && match t.pending_members with
     | Some next -> tally next >= maj next
     | None -> true

(* Union of current and pending members (dedup preserves order): the
   broadcast domain during a joint window. *)
let recipients (t : t) =
  let all =
    match t.pending_members with
    | None -> t.members
    | Some next ->
      List.fold_left
        (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
        t.members next
  in
  List.filter (fun n -> n <> t.self) all

let is_member (t : t) n =
  List.mem n t.members
  || match t.pending_members with Some m -> List.mem n m | None -> false

(* Every outbound message carries the sender's epoch so stale members
   can be fenced at the receiver. *)
let cast (t : t) msg =
  let wrapped = Epoched { e = t.epoch; inner = msg } in
  List.iter
    (fun n -> Fabric.send t.fabric ~src:(ep t.self) ~dst:(ep n) wrapped)
    (recipients t)

let tell (t : t) n msg =
  Fabric.send t.fabric ~src:(ep t.self) ~dst:(ep n)
    (Epoched { e = t.epoch; inner = msg })

(* Primary-side lease grant: a quorum of acks for the current heartbeat
   round extends the lease to that round's send instant plus
   lease_duration.  [leases_held] counts invalid-to-valid transitions
   (acquisitions), not per-round renewals. *)
let maybe_grant_lease (t : t) =
  if quorum_reached t t.hb_acks then begin
    let until = t.hb_sent + t.cfg.lease_duration in
    if until > t.lease_until then begin
      if Engine.now t.eng >= t.lease_until then begin
        t.leases_held <- t.leases_held + 1;
        if Engine.tracing t.eng then
          Engine.emit t.eng ~node:t.self (Trace.Lease_grant { view = t.view; until })
      end;
      t.lease_until <- until
    end
  end

(* A fenced replica is out of the configuration for good: shed clients,
   forget any primaryship or election, and go silent.  The inbound path
   drops everything once [fenced] is set. *)
let fence_self (t : t) ~epoch =
  if not t.fenced then begin
    t.fenced <- true;
    t.primary <- None;
    t.election <- None;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.self (Trace.Fence { node = t.self; epoch });
    fire_demote t;
    t.handlers.on_fence ~epoch
  end

(* Track the latest uncommitted Reconfig in the suffix: it defines the
   joint quorum until it commits (or is superseded by a log merge). *)
let refresh_pending_config (t : t) =
  let rec scan idx best =
    if idx > t.last_index then best
    else
      let best =
        if not (log_is_config t idx) then best
        else
          match decode_config (log_value t idx) with
          | Some (e, m) when e > t.epoch -> Some m
          | _ -> best
      in
      scan (idx + 1) best
  in
  t.pending_members <- scan (t.committed + 1) None

(* Activation: a committed Reconfig takes effect the moment it is
   applied.  From here on quorums, broadcasts and the failure detector
   use the new membership, and this replica stamps the new epoch on
   every message — which is what fences the departed. *)
let activate_config (t : t) ~epoch ~members =
  if epoch > t.epoch then begin
    let old = t.members in
    t.epoch <- epoch;
    t.members <- members;
    t.reconfigs <- t.reconfigs + 1;
    (* A lease granted under the old membership's quorums says nothing
       about the new configuration: drop it and re-earn one from the new
       members' acks. *)
    revoke_lease t;
    List.iter
      (fun n ->
        if not (List.mem n old) then begin
          Hashtbl.replace t.peer_heard n (Engine.now t.eng);
          if Engine.tracing t.eng then
            Engine.emit t.eng ~node:t.self (Trace.Join { node = n; epoch })
        end)
      members;
    List.iter
      (fun n ->
        if not (List.mem n members) then begin
          Hashtbl.remove t.peer_heard n;
          Hashtbl.remove t.peer_applied n;
          if Engine.tracing t.eng then
            Engine.emit t.eng ~node:t.self (Trace.Leave { node = n; epoch })
        end)
      old;
    refresh_pending_config t;
    t.handlers.on_config ~epoch members;
    (* Self-removal: fence immediately only when this is the newest
       configuration we could possibly know of — nothing pending in the
       suffix and nothing committed-but-unapplied.  A replica replaying
       history (a joiner catching up through the config that predates its
       own admission) must keep going: a later entry re-admits it.  If a
       re-admission never comes, the members' inbound gate tells it
       authoritatively via [Fenced]. *)
    if
      (not (List.mem t.self members))
      && t.pending_members = None
      && t.applied >= t.committed
    then fence_self t ~epoch
  end
  else refresh_pending_config t

(* Failure detector output (meaningful on the primary, which hears every
   live member's heartbeat acks): members silent past suspect_timeout. *)
let suspects (t : t) =
  if not (is_primary t) then []
  else
    let now = Engine.now t.eng in
    List.filter
      (fun n ->
        n <> t.self
        && match Hashtbl.find_opt t.peer_heard n with
           | Some heard -> now - heard > t.cfg.suspect_timeout
           | None -> true)
      t.members

(* Deliver committed values to the application, in order; a gap waits
   for catch-up. *)
let rec apply (t : t) =
  if t.applied < t.committed && log_mem t (t.applied + 1) then begin
    let value = log_value t (t.applied + 1) in
    t.applied <- t.applied + 1;
    t.decisions <- t.decisions + 1;
    if Engine.tracing t.eng then begin
      Engine.emit t.eng ~node:t.self (Trace.Commit { index = t.applied });
      (* Close the proposer-side decide span (open only where this
         replica proposed the entry). *)
      Engine.emit t.eng ~node:t.self ~ph:(Trace.Async_end t.applied)
        (Trace.Decide { index = t.applied })
    end;
    (* Config entries are consumed by consensus itself: they activate
       the new membership instead of reaching the application. *)
    (match decode_config value with
    | Some (epoch, members) -> activate_config t ~epoch ~members
    | None -> t.handlers.on_commit ~index:t.applied value);
    apply t
  end

(* Retire proposed batches whose whole index range has now committed.
   The histogram key is clamped to a fixed bucket range so the table
   cannot grow without bound under exotic batch sizes. *)
let histogram_cap = 64

let note_committed_batches t =
  let rec go () =
    match Queue.peek_opt t.open_batches with
    | Some (hi, size) when hi <= t.committed ->
      ignore (Queue.pop t.open_batches);
      t.batches_committed <- t.batches_committed + 1;
      if size > t.max_batch then t.max_batch <- size;
      let size = min size histogram_cap in
      Hashtbl.replace t.batch_sizes size
        (1 + Option.value (Hashtbl.find_opt t.batch_sizes size) ~default:0);
      go ()
    | Some _ | None -> ()
  in
  go ()

(* A commit marker covers every index up to its own: recovery keeps the
   highest, so one marker per commit advance is enough. *)
let mark_committed t =
  Wal.append_async t.wal [ Wal_record.encode (Commit t.committed) ] ignore

let set_committed ?(mark = true) t idx =
  let moved = idx > t.committed in
  if moved then begin
    (* Commit advancement retires the ack sets: once an index is
       committed, quorum bookkeeping for it is dead weight. *)
    for i = t.committed + 1 to idx do
      Hashtbl.remove t.acks i
    done;
    t.committed <- idx;
    note_committed_batches t;
    if mark then mark_committed t
  end;
  (* Always try to apply, even when the commit index did not move: the
     caller may have just filled a log hole {e below} it (catch-up after a
     lossy window), and the application was stalled on that hole.
     [Hole_backfill] regresses exactly this line to the historical bug
     (apply only on commit movement) for the Crane-MC self-check. *)
  if moved || t.cfg.mutation <> Hole_backfill then apply t

let store_entry t ~index ~eview ~value =
  (* Indices at or below the compaction base are covered by the snapshot:
     the log never holds them again (a stale retransmission must not
     resurrect a dropped prefix). *)
  if index > t.base then begin
    let touches_config = is_config_value value || log_is_config t index in
    (* A retransmission of the entry already held (same view, same
       bytes) leaves the log as it is. *)
    let loc = log_loc t index in
    if
      loc = absent
      ||
      let view = Arena.tag t.store loc in
      view < eview || (view = eview && not (Arena.equal t.store loc value))
    then log_set t index eview value;
    if t.resident > t.peak_log then t.peak_log <- t.resident;
    if index > t.last_index then t.last_index <- index;
    (* A Reconfig landing in (or leaving) the uncommitted suffix changes
       the joint-quorum requirement immediately, on backups too. *)
    if touches_config then refresh_pending_config t
  end

(* ------------------------------------------------------------------ *)
(* Normal case: primary order (one round trip + durable write). *)

let record_ack t ~index ~from =
  (* Straggler acks for already-committed indices would silently regrow
     the table set_committed just pruned. *)
  if index > t.committed then begin
    let cur = match Hashtbl.find_opt t.acks index with Some l -> l | None -> [] in
    if not (List.mem from cur) then Hashtbl.replace t.acks index (from :: cur)
  end

let advance_commits t =
  let progressed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let next = t.committed + 1 in
    match Hashtbl.find_opt t.acks next with
    | Some l when quorum_reached t l ->
      if Engine.tracing t.eng then
        Engine.emit t.eng ~node:t.self (Trace.Quorum_ack { index = next; acks = List.length l });
      set_committed ~mark:false t next;
      progressed := true
    | Some _ | None -> continue_ := false
  done;
  if !progressed then begin
    mark_committed t;
    cast t (Commit { cview = t.view; committed = t.committed })
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint-coordinated log compaction (§5.2: recovery is a checkpoint
   plus the post-checkpoint suffix, so everything below the watermark can
   be dropped from every long-lived structure). *)

(* Older truncation headers are superseded by the newer one. *)
let wal_drop_record wm data =
  match Wal_record.index data with Some idx -> idx <= wm | None -> true

(* Drop log/ack entries <= wm and truncate the WAL to a (watermark,
   snapshot) header plus suffix.  Only safe — and only attempted — when a
   snapshot covering wm is held: the snapshot is what catch-up serves in
   place of the dropped prefix. *)
let compact_to (t : t) wm =
  let wm = min wm t.applied in
  if wm > t.base then
    match t.snapshot with
    | Some (s_index, blob) when s_index >= wm ->
      for idx = t.base + 1 to wm do
        Hashtbl.remove t.acks idx
      done;
      release_prefix t wm;
      t.compactions <- t.compactions + 1;
      if Engine.tracing t.eng then
        Engine.emit t.eng ~node:t.self (Trace.Compact { watermark = wm; snapshot = s_index });
      let header =
        Wal_record.encode
          (Trunc { watermark = wm; s_index; blob; t_epoch = t.epoch; t_members = t.members })
      in
      Wal.truncate_to t.wal ~header ~drop:(wal_drop_record wm) (fun () -> ());
      t.hooks.on_compact ~watermark:wm
    | Some _ | None -> ()

(* Primary-side watermark: min applied index across live replicas (peers
   silent for an election timeout are presumed dead — they recover via
   the snapshot path), capped by the snapshot index since the snapshot is
   the only substitute for dropped entries. *)
let maybe_compact (t : t) =
  if t.cfg.compaction_threshold > 0 && is_primary t then
    match t.snapshot with
    | None -> ()
    | Some (s_index, _) ->
      let now = Engine.now t.eng in
      let wm =
        List.fold_left
          (fun acc n ->
            if n = t.self then acc
            else
              match Hashtbl.find_opt t.peer_applied n with
              | Some (a, heard) when now - heard <= t.cfg.election_timeout ->
                min acc a
              | Some _ | None -> acc)
          (min t.applied s_index) t.members
      in
      if wm - t.base >= t.cfg.compaction_threshold then begin
        cast t (Compact { cwatermark = wm });
        compact_to t wm
      end

(* Adopt a fresh application snapshot (from the checkpoint component) and
   disseminate it: every replica holding the blob can serve snapshot
   catch-up and survive the primary compacting past its own WAL. *)
let offer_snapshot (t : t) ~index ~blob =
  match t.snapshot with
  | Some (i, _) when i >= index -> ()
  | Some _ | None ->
    t.snapshot <- Some (index, blob);
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.self
        (Trace.Snapshot_offer { index; bytes = String.length blob });
    List.iter
      (fun n ->
        Fabric.send t.fabric ~bytes:(String.length blob) ~src:(ep t.self)
          ~dst:(ep n)
          (Epoched { e = t.epoch; inner = Snapshot_push { s_index = index; blob } }))
      (recipients t);
    maybe_compact t

(* Proposer-side durability marker: the (group) fsync covering [lo..hi]
   just hit the device.  Critical-path analysis splits the commit latency
   of each index into its fsync component vs. the consensus round that
   overlaps it. *)
let fsync_done t ~lo ~hi =
  if Engine.tracing t.eng then
    for index = lo to hi do
      Engine.emit t.eng ~node:t.self (Trace.Fsync_done { index })
    done

(* One consensus round: indices are assigned per value (so decisions,
   checkpoints and catch-up are oblivious to batching) but the broadcast,
   the acks and the WAL fsync are paid once. *)
let submit t values =
  if values = [] || not (is_primary t) then None
  else begin
    let aview = t.view in
    let lo = t.last_index + 1 in
    List.iteri (fun i value -> store_entry t ~index:(lo + i) ~eview:aview ~value) values;
    let hi = t.last_index in
    if Engine.tracing t.eng then
      for index = lo to hi do
        Engine.emit t.eng ~node:t.self (Trace.Propose { index; view = aview });
        Engine.emit t.eng ~node:t.self ~ph:(Trace.Async_begin index) (Trace.Decide { index })
      done;
    cast t (Accept { aview; lo; values; committed = t.committed });
    Queue.add (hi, hi - lo + 1) t.open_batches;
    Wal.append_async t.wal
      (List.mapi (fun i value -> Wal_record.encode (Accept (aview, lo + i, value))) values)
      (fun () ->
        fsync_done t ~lo ~hi;
        if t.view = aview && is_primary t then begin
          for index = lo to hi do
            record_ack t ~index ~from:t.self
          done;
          advance_commits t
        end);
    Some (lo, hi)
  end

(* Propose a membership change.  One reconfiguration in flight at a
   time: the next one must wait for activation, otherwise two pending
   configs would make the joint-quorum rule ambiguous. *)
let submit_reconfig (t : t) members' =
  if (not (is_primary t)) || t.pending_members <> None then None
  else if List.sort compare members' = List.sort compare t.members then None
  else begin
    let epoch = t.epoch + 1 in
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.self (Trace.Reconfig_propose { epoch; members = members' });
    (* Set the joint quorum before casting so the very Accept carrying
       the config entry already needs both majorities to commit. *)
    t.pending_members <- Some members';
    match submit t [ encode_config ~epoch ~members:members' ] with
    | Some (i, _) -> Some i
    | None ->
      t.pending_members <- None;
      None
  end

(* ------------------------------------------------------------------ *)
(* Leader election: the three steps of §5.1. *)

let log_tail t ~from_index =
  let rec collect idx acc =
    if idx > t.last_index then List.rev acc
    else
      let v = log_view t idx in
      collect (idx + 1) (if v = absent then acc else (idx, v, log_value t idx) :: acc)
  in
  collect (max 1 from_index) []

let merge_tails t tails =
  (* Highest-view entry wins per index; highest committed wins overall. *)
  let best : (int, int * string) Hashtbl.t = Hashtbl.create 64 in
  let committed = ref t.committed in
  let absorb (tail, c) =
    if c > !committed then committed := c;
    List.iter
      (fun (idx, v, value) ->
        match Hashtbl.find_opt best idx with
        | Some (v', _) when v' >= v -> ()
        | Some _ | None -> Hashtbl.replace best idx (v, value))
      tail
  in
  absorb (log_tail t ~from_index:(t.committed + 1), t.committed);
  List.iter (fun (_, tail, c) -> absorb (tail, c)) tails;
  let entries =
    Hashtbl.fold (fun idx (v, value) acc -> (idx, v, value) :: acc) best []
  in
  (List.sort (fun (a, _, _) (b, _, _) -> compare a b) entries, !committed)

let install_entries t entries =
  List.iter (fun (idx, v, value) -> store_entry t ~index:idx ~eview:v ~value) entries

let become_backup t ~nview ~primary =
  let was_primary = is_primary t in
  t.view <- nview;
  if nview > t.max_view_seen then t.max_view_seen <- nview;
  t.primary <- primary;
  t.election <- None;
  t.last_heartbeat <- Engine.now t.eng;
  t.vc_defers <- 0;
  if was_primary && not (is_primary t) then fire_demote t

(* A primary that cannot hear any peer (no acks, no heartbeat acks) for
   election_timeout has lost its quorum — or sits on the sending side of
   an asymmetric partition, where backups still hear its heartbeats and
   never elect.  Stepping down breaks the stalemate: heartbeats stop, the
   backups time out and elect among themselves. *)
let abdicate (t : t) =
  t.primary <- None;
  t.abdications <- t.abdications + 1;
  if Engine.tracing t.eng then Engine.emit t.eng ~node:t.self (Trace.Abdicate { view = t.view });
  fire_demote t

let rec heartbeat_loop t =
  Engine.after t.eng ~group:t.group t.cfg.heartbeat_period (fun () ->
      if is_primary t then
        if
          List.length t.members > 1
          && Engine.now t.eng - t.last_peer_contact >= t.cfg.election_timeout
        then abdicate t
        else begin
          if Engine.tracing t.eng then
            Engine.emit t.eng ~node:t.self
              (Trace.Heartbeat { view = t.view; committed = t.committed });
          t.hb_seq <- t.hb_seq + 1;
          t.hb_sent <- Engine.now t.eng;
          t.hb_acks <- [ t.self ];
          (* A single-member configuration is its own quorum. *)
          maybe_grant_lease t;
          cast t (Heartbeat { hview = t.view; hseq = t.hb_seq; committed = t.committed });
          (* Retransmit the pending window.  An Accept lost in the fabric
             is never re-sent on its own, so the commit index would freeze
             at the hole while new proposals pile up behind it; re-casting
             a bounded window from committed+1 repairs the hole, and
             advance_commits then cascades through the already-acked
             tail.  Backups re-ack duplicates without re-persisting.  Each
             index goes out as its own one-value range: coalescing them
             would change message counts and every link's RNG draws. *)
          let hi = min t.last_index (t.committed + 64) in
          for index = t.committed + 1 to hi do
            if log_mem t index then
              let values = [ log_value t index ] in
              cast t (Accept { aview = t.view; lo = index; values; committed = t.committed })
          done;
          heartbeat_loop t
        end)

let become_primary (t : t) election =
  let entries, committed = merge_tails t election.tails in
  install_entries t entries;
  t.view <- election.eview;
  t.primary <- Some t.self;
  t.election <- None;
  t.view_changes <- t.view_changes + 1;
  t.last_election_duration <- Some (Engine.now t.eng - election.started_at);
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.self
      (Trace.View_change
         { view = t.view; election_ns = Engine.now t.eng - election.started_at });
  (* Step 3: announce. *)
  cast t (New_view { nview = t.view; entries; committed });
  if committed > t.committed then begin
    t.committed <- committed;
    apply t
  end;
  (* Re-propose the uncommitted suffix under the new view. *)
  let rec repropose idx =
    if idx <= t.last_index then begin
      if log_mem t idx then begin
        let value = log_value t idx in
        log_set t idx t.view value;
        Hashtbl.replace t.acks idx [ t.self ];
        cast t
          (Accept { aview = t.view; lo = idx; values = [ value ]; committed = t.committed })
      end;
      repropose (idx + 1)
    end
  in
  repropose (t.committed + 1);
  heartbeat_loop t

let rec start_election t =
  if (not (is_primary t)) && not t.fenced then begin
    let nview = t.max_view_seen + 1 in
    t.max_view_seen <- nview;
    let election =
      {
        eview = nview;
        oks = [ t.self ];
        tails = [];
        cand_oks = [ t.self ];
        phase = `Collect;
        started_at = Engine.now t.eng;
      }
    in
    t.election <- Some election;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.self (Trace.Election_start { view = nview });
    cast t (View_change { nview; cand_committed = t.committed });
    (* Single-node "cluster": immediately win. *)
    check_election_progress t election;
    (* Stalled round: retry with a higher view. *)
    Engine.after t.eng ~group:t.group t.cfg.round_retry (fun () ->
        match t.election with
        | Some e when e.eview = nview -> start_election t
        | Some _ | None -> ())
  end

and check_election_progress t e =
  if e.phase = `Collect && quorum_reached t e.oks then begin
    e.phase <- `Candidate;
    (* Step 2: propose ourselves as primary candidate. *)
    cast t (Candidate { nview = e.eview });
    check_election_progress t e
  end
  else if e.phase = `Candidate && quorum_reached t e.cand_oks then
    become_primary t e

(* Election timer: backups that miss heartbeats for election_timeout
   (paper: 3 s) start an election, with per-node jitter to avoid duels. *)
let rec election_monitor t =
  let jitter = Rng.int t.rng (max 1 t.cfg.election_jitter) in
  let period = Time.ms 200 + jitter in
  Engine.after t.eng ~group:t.group period (fun () ->
      (if (not (is_primary t)) && t.election = None && not t.fenced then
         let silence = Engine.now t.eng - t.last_heartbeat in
         if silence >= t.cfg.election_timeout then start_election t);
      election_monitor t)

(* ------------------------------------------------------------------ *)
(* Message handling. *)

(* One bounded page of committed entries.  The requester re-requests from
   its new applied index after installing a page, so a lagging replica
   streams the tail chunk by chunk instead of triggering one unbounded
   message burst on the fabric. *)
let serve_entries (t : t) ~dst ~from_index =
  let chunk = max 1 t.cfg.catchup_chunk in
  let rec collect idx acc n =
    if idx > t.committed || n >= chunk then List.rev acc
    else
      if log_mem t idx then collect (idx + 1) ((idx, log_value t idx) :: acc) (n + 1)
      else collect (idx + 1) acc n
  in
  let entries = collect (max (t.base + 1) from_index) [] 0 in
  tell t dst
    (Catchup_resp { rview = t.view; primary = Option.value t.primary ~default:t.self; entries; committed = t.committed })

(* Two-tier catch-up: below the compaction base the log is gone, so the
   reply is the latest snapshot (streamed with its transfer cost), and
   the requester comes back for the suffix with an ordinary chunked
   request. *)
let send_catchup (t : t) ~dst ~from_index =
  match t.snapshot with
  | Some (s_index, blob) when from_index <= t.base && s_index >= from_index ->
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.self (Trace.Snapshot_serve { index = s_index; dst });
    Fabric.send t.fabric ~bytes:(String.length blob) ~src:(ep t.self)
      ~dst:(ep dst)
      (Epoched
         { e = t.epoch;
           inner =
             Snapshot_resp
               { s_index;
                 blob;
                 s_committed = t.committed;
                 s_epoch = t.epoch;
                 s_members = t.members
               }
         })
  | Some _ | None -> serve_entries t ~dst ~from_index

let handle (t : t) ~src msg =
  let from = src.Fabric.node in
  t.last_peer_contact <- Engine.now t.eng;
  Hashtbl.replace t.peer_heard from (Engine.now t.eng);
  match msg with
  | Accept { aview; lo; values; committed } ->
    if aview = t.view && Some from = t.primary then begin
      let hi = lo + List.length values - 1 in
      let dup =
        List.for_all (fun i -> log_view t i = aview) (List.init (hi - lo + 1) (fun i -> lo + i))
      in
      List.iteri (fun i value -> store_entry t ~index:(lo + i) ~eview:aview ~value) values;
      t.last_heartbeat <- Engine.now t.eng;
      (* A retransmitted Accept is already durable here: re-ack straight
         away (the first ack may have been the lost half) without writing
         duplicate WAL records.  [Dup_accept] regresses this to the
         historical bug — swallow the duplicate without re-acking — for
         the Crane-MC self-check. *)
      if dup then begin
        if t.cfg.mutation <> Dup_accept then tell t from (Accept_ok { aview; lo; hi })
      end
      else
        (* Group commit: the whole range becomes durable with one fsync. *)
        Wal.append_async t.wal
          (List.mapi (fun i value -> Wal_record.encode (Accept (aview, lo + i, value))) values)
          (fun () -> if t.view = aview then tell t from (Accept_ok { aview; lo; hi }));
      set_committed t (min committed hi)
    end
    else if aview > t.view then
      (* Missed a view change: learn the new configuration. *)
      tell t from (Catchup_req { from_index = t.committed + 1 })
  | Accept_ok { aview; lo; hi } ->
    if aview = t.view && is_primary t then begin
      for index = lo to hi do
        record_ack t ~index ~from
      done;
      advance_commits t
    end
  | Commit { cview; committed } ->
    if cview = t.view then begin
      t.last_heartbeat <- Engine.now t.eng;
      if committed > t.last_index then
        tell t from (Catchup_req { from_index = t.applied + 1 })
      else set_committed t committed
    end
  | Heartbeat { hview; hseq; committed } ->
    if hview > t.view then begin
      become_backup t ~nview:hview ~primary:(Some from);
      tell t from (Catchup_req { from_index = t.applied + 1 })
    end
    else if hview = t.view then begin
      t.last_heartbeat <- Engine.now t.eng;
      t.vc_defers <- 0;
      (* Ack so the primary knows it still has quorum contact; the
         applied index feeds its compaction watermark.  The ack is also a
         lease promise: record its instant, and refuse election votes
         until lease_duration past it (see View_change/Candidate). *)
      t.last_hb_acked <- Engine.now t.eng;
      tell t from (Heartbeat_ok { hview; hseq; h_applied = t.applied });
      if Some from <> t.primary then t.primary <- Some from;
      (if committed > t.committed then
         if committed > t.last_index then
           tell t from (Catchup_req { from_index = t.applied + 1 })
         else set_committed t committed);
      (* Heal application gaps: committed can overtake a hole (e.g. a
         rejoined replica that missed a range while current Accepts keep
         raising its last_index).  Heartbeats re-request the missing
         range until the log is contiguous again. *)
      if t.applied < t.committed && not (log_mem t (t.applied + 1)) then
        tell t from (Catchup_req { from_index = t.applied + 1 })
    end
  | Heartbeat_ok { hview; hseq; h_applied } ->
    (* Peer contact already noted above; a current-view ack also reports
       how far the peer has applied, driving the compaction watermark. *)
    if hview = t.view && is_primary t then begin
      Hashtbl.replace t.peer_applied from (h_applied, Engine.now t.eng);
      (* Acks for an older round prove liveness but must not extend the
         lease from the newer round's anchor. *)
      if hseq = t.hb_seq && not (List.mem from t.hb_acks) then begin
        t.hb_acks <- from :: t.hb_acks;
        maybe_grant_lease t
      end;
      maybe_compact t
    end
  | View_change { nview; cand_committed } ->
    (* Lease disjointness, voter side: a node that acked a heartbeat
       within lease_duration helped grant a read lease anchored no later
       than that ack.  Voting for a new view inside the window could
       elect a writer while the old primary still serves lease reads, so
       the vote is withheld (the proposer's round_retry re-asks; an
       election only ever starts after election_timeout > lease_duration
       of silence, so a genuinely dead primary costs nothing here). *)
    if
      nview > t.max_view_seen
      && Engine.now t.eng - t.last_hb_acked >= t.cfg.lease_duration
    then begin
      t.max_view_seen <- nview;
      (* Back off our own competing election and defer to the caller —
         but only a few times in a row: past the bound the proposer is
         presumed unreachable (it would have won by now) and our own
         election timer keeps running. *)
      (match t.election with
      | Some e when e.eview < nview -> t.election <- None
      | Some _ | None -> ());
      if t.vc_defers < 3 then begin
        t.vc_defers <- t.vc_defers + 1;
        t.last_heartbeat <- Engine.now t.eng
      end;
      tell t from
        (View_change_ok
           { nview;
             tail = log_tail t ~from_index:(cand_committed + 1);
             committed = t.committed;
             vbase = t.base })
    end
  | View_change_ok { nview; tail; committed; vbase } -> (
    match t.election with
    | Some e when e.eview = nview && e.phase = `Collect ->
      if vbase > t.applied then begin
        (* The responder compacted past our applied prefix: its tail
           cannot contain the entries we are missing below its base, so
           winning this election would leave an unfillable hole.  Abort
           and snapshot-catch-up first; the election monitor retries. *)
        t.election <- None;
        tell t from (Catchup_req { from_index = t.applied + 1 })
      end
      else if not (List.mem from e.oks) then begin
        e.oks <- from :: e.oks;
        e.tails <- (from, tail, committed) :: e.tails;
        check_election_progress t e
      end
    | Some _ | None -> ())
  | Candidate { nview } ->
    (* Same lease guard as View_change: a candidacy vote inside the
       promise window could seat a new primary under a live lease. *)
    if
      nview >= t.max_view_seen
      && Engine.now t.eng - t.last_hb_acked >= t.cfg.lease_duration
    then begin
      t.max_view_seen <- nview;
      t.last_heartbeat <- Engine.now t.eng;
      tell t from (Candidate_ok { nview })
    end
  | Candidate_ok { nview } -> (
    match t.election with
    | Some e when e.eview = nview && e.phase = `Candidate ->
      if not (List.mem from e.cand_oks) then begin
        e.cand_oks <- from :: e.cand_oks;
        check_election_progress t e
      end
    | Some _ | None -> ())
  | New_view { nview; entries; committed } ->
    if nview >= t.view then begin
      install_entries t entries;
      become_backup t ~nview ~primary:(Some from);
      set_committed t committed
    end
  | Catchup_req { from_index } -> send_catchup t ~dst:from ~from_index
  | Catchup_resp { rview; primary; entries; committed } ->
    if rview >= t.view then begin
      if rview > t.view then become_backup t ~nview:rview ~primary:(Some primary);
      let applied_before = t.applied in
      List.iter
        (fun (idx, value) ->
          if not (log_mem t idx) then
            t.catchup_installed <- t.catchup_installed + 1;
          store_entry t ~index:idx ~eview:rview ~value)
        entries;
      set_committed t committed;
      (* Continuation: the server pages its committed tail, so as long as
         this page made progress and more remains, pull the next chunk.
         No progress (an empty or useless page) ends the loop — the
         heartbeat gap-healer retries later rather than spinning. *)
      if entries <> [] && t.applied > applied_before && t.applied < committed
      then tell t from (Catchup_req { from_index = t.applied + 1 })
    end
  | Snapshot_push { s_index; blob } ->
    (match t.snapshot with
    | Some (i, _) when i >= s_index -> ()
    | Some _ | None -> t.snapshot <- Some (s_index, blob));
    (* A primary learning of a fresh checkpoint may now be able to
       advance the watermark. *)
    maybe_compact t
  | Snapshot_resp { s_index; blob; s_committed; s_epoch; s_members } ->
    if s_index > t.applied then begin
      (match t.snapshot with
      | Some (i, _) when i >= s_index -> ()
      | Some _ | None -> t.snapshot <- Some (s_index, blob));
      (* A joiner bootstrapping from a snapshot may never replay the
         Reconfig entries folded into the image: adopt the serving
         replica's configuration directly. *)
      if s_epoch > t.epoch then activate_config t ~epoch:s_epoch ~members:s_members;
      t.snapshots_installed <- t.snapshots_installed + 1;
      if Engine.tracing t.eng then
        Engine.emit t.eng ~node:t.self
          (Trace.Snapshot_install { index = s_index; behind = s_index - t.applied });
      t.hooks.install_snapshot ~index:s_index blob;
      (* Fast-forward: everything at or below the snapshot index is
         covered by the image, so jump applied/committed over it, drop
         the covered log prefix and persist the jump as a truncation
         header (a crash right after this recovers past the snapshot
         too, instead of replaying a history it no longer holds). *)
      if s_index > t.last_index then t.last_index <- s_index;
      if s_index > t.committed then t.committed <- s_index;
      t.applied <- s_index;
      compact_to t s_index;
      apply t;
      if s_committed > t.applied then
        tell t from (Catchup_req { from_index = t.applied + 1 })
    end
  | Compact { cwatermark } ->
    (* Primary-coordinated: only drop what the local snapshot can cover
       (compact_to re-checks); a replica without the snapshot keeps its
       log and compacts on a later round. *)
    if Some from = t.primary then compact_to t cwatermark
  | _ -> ()

(* Inbound epoch gate.  A fenced replica processes nothing.  A message
   stamped with our epoch or older by a non-member is the signature of a
   replica that was reconfigured out: drop it (with a reason on the
   receiver's timeline) and tell the sender authoritatively, so it
   fences itself instead of mounting doomed elections forever.  Strictly
   newer epochs are always let through — the sender knows a configuration
   we have yet to learn, and the log (or a snapshot) will teach us. *)
let receive (t : t) ~src msg =
  match msg with
  | _ when t.fenced -> ()
  | Epoched { e; inner } ->
    let from = src.Fabric.node in
    if e <= t.epoch && not (is_member t from) then begin
      t.fenced_drops <- t.fenced_drops + 1;
      Fabric.reject t.fabric ~src ~dst:(ep t.self) ~reason:"fenced_epoch";
      Fabric.send t.fabric ~src:(ep t.self) ~dst:src (Fenced { f_epoch = t.epoch })
    end
    else handle t ~src inner
  | Fenced { f_epoch } ->
    (* A strictly newer epoch is authoritative.  At our own epoch the
       sender and we share one configuration, so verify against it: only
       fence if that configuration really excludes us (guards a fresh
       joiner against a stale replica's mistaken verdict). *)
    if f_epoch > t.epoch || (f_epoch = t.epoch && not (is_member t t.self)) then
      fence_self t ~epoch:(max f_epoch t.epoch)
  | msg ->
    (* Unstamped traffic (older peers, tests poking the port): treat as
       current-epoch. *)
    handle t ~src msg

(* ------------------------------------------------------------------ *)

let recover_from_wal (t : t) =
  let absorb (e : Wal.entry) =
    (* A crash mid-append leaves a torn partial tail: discard it (and any
       record whose bytes no longer decode) — the stable prefix is the
       truth, catch-up refills the rest from live replicas. *)
    if e.Wal.torn then t.wal_torn_discarded <- t.wal_torn_discarded + 1
    else
      match Wal_record.decode e.Wal.data with
      | Accept (v, idx, value) -> store_entry t ~index:idx ~eview:v ~value
      | Commit idx -> if idx > t.committed then t.committed <- idx
      | Trunc { watermark; s_index; blob; t_epoch; t_members } ->
        (* A crash between the header write and the physical prefix drop
           leaves both on disk: records already absorbed below the
           watermark are void (the snapshot covers them), so processing
           headers in log order makes recovery idempotent. *)
        release_prefix t watermark;
        if watermark > t.committed then t.committed <- watermark;
        if watermark > t.last_index then t.last_index <- watermark;
        if t_epoch > t.epoch then begin
          t.epoch <- t_epoch;
          t.members <- t_members
        end;
        (match t.snapshot with
        | Some (i, _) when i >= s_index -> ()
        | Some _ | None -> t.snapshot <- Some (s_index, blob))
      | exception _ -> t.wal_torn_discarded <- t.wal_torn_discarded + 1
  in
  List.iter absorb (Wal.entries t.wal);
  (* Accept records are written asynchronously, so the log can have holes
     below the recorded committed index (the marker write raced the
     crash).  Clamp committed to the contiguous prefix: catch-up re-learns
     the rest from live replicas, and checkpoint replay never sees a
     gap. *)
  let rec contiguous idx =
    if log_mem t (idx + 1) then contiguous (idx + 1) else idx
  in
  t.committed <- min t.committed (contiguous t.base);
  (* The server restarts from a checkpoint and replays explicitly
     (get_committed_range), so recovered history is not re-applied —
     except for Reconfig entries, whose effect (the membership) lives in
     consensus state, not application state: re-activate the newest
     committed one, and re-learn any still-pending one. *)
  let rec rescan idx =
    if idx <= t.committed then begin
      (if log_is_config t idx then
         match decode_config (log_value t idx) with
         | Some (e, m) when e > t.epoch ->
           t.epoch <- e;
           t.members <- m
         | _ -> ());
      rescan (idx + 1)
    end
  in
  rescan (t.base + 1);
  refresh_pending_config t;
  t.applied <- t.committed

let create ?(config = default_config) ~fabric ~rng ~wal ~members ~node ~group () =
  (* Lease safety needs lease_duration < election_timeout: a voter's
     promise window must expire before any election it withheld a vote
     from can be forced through.  Clamp rather than trust the caller. *)
  let config =
    if config.lease_duration >= config.election_timeout then
      { config with lease_duration = config.election_timeout / 2 }
    else config
  in
  let t =
    {
      cfg = config;
      fabric;
      eng = Fabric.engine fabric;
      rng;
      wal;
      members;
      epoch = 0;
      pending_members = None;
      fenced = false;
      self = node;
      group;
      view = 0;
      primary = None;
      max_view_seen = 0;
      log = [||];
      store = Arena.create ();
      resident = 0;
      last_index = 0;
      committed = 0;
      applied = 0;
      acks = Hashtbl.create 1024;
      handlers = null_handlers;
      hooks = null_hooks;
      base = 0;
      snapshot = None;
      peer_applied = Hashtbl.create 8;
      peer_heard = Hashtbl.create 8;
      hb_seq = 0;
      hb_sent = Time.zero;
      hb_acks = [];
      lease_until = Time.zero;
      last_hb_acked = Time.zero;
      last_heartbeat = Time.zero;
      last_peer_contact = Time.zero;
      election = None;
      vc_defers = 0;
      started = false;
      decisions = 0;
      view_changes = 0;
      last_election_duration = None;
      abdications = 0;
      catchup_installed = 0;
      wal_torn_discarded = 0;
      compactions = 0;
      snapshots_installed = 0;
      peak_log = 0;
      reconfigs = 0;
      fenced_drops = 0;
      leases_held = 0;
      open_batches = Queue.create ();
      batches_committed = 0;
      batch_sizes = Hashtbl.create 16;
      max_batch = 0;
    }
  in
  recover_from_wal t;
  Fabric.bind fabric (ep node) (fun ~src msg ->
      if Engine.group_alive t.eng group then receive t ~src msg);
  Engine.on_kill t.eng group (fun () -> Fabric.unbind fabric (ep node));
  t

let start t ?(as_primary = false) () =
  if not t.started then begin
    t.started <- true;
    t.last_heartbeat <- Engine.now t.eng;
    t.last_peer_contact <- Engine.now t.eng;
    (* Failure-detector grace: every member gets credit for "heard now"
       at start so a cold cluster doesn't suspect everyone at once. *)
    List.iter (fun n -> Hashtbl.replace t.peer_heard n (Engine.now t.eng)) t.members;
    let initial_primary =
      match t.members with first :: _ -> first | [] -> t.self
    in
    if as_primary || (t.view = 0 && initial_primary = t.self && t.committed = 0) then begin
      (* Fresh deployment: the first member bootstraps as primary. *)
      t.primary <- Some t.self;
      heartbeat_loop t
    end
    else if t.primary = None && t.view = 0 && initial_primary <> t.self then
      t.primary <- Some initial_primary
    (* else: a recovered node rejoins as a backup and waits for the
       current primary's heartbeat (or an election timeout). *);
    election_monitor t
  end

let get_committed_range t ~lo ~hi =
  let rec collect idx acc =
    if idx > hi || idx > t.committed then List.rev acc
    else
      if log_mem t idx then collect (idx + 1) (log_value t idx :: acc) else List.rev acc
  in
  collect (max 1 lo) []
