(** Deterministic flight recorder for the simulated cluster (virtual-time
    tracing).

    Events carry virtual-nanosecond timestamps, the engine thread id and
    a replica attribution; the engine's determinism makes the exported
    trace byte-identical across runs with the same seed.  Disabled sinks
    cost one branch per instrumentation site.

    An event is one {!event} constructor with typed fields.  Producers
    build constructors, analyzers match them exhaustively, and
    {!describe} is the only place a kind is spelled as the exported
    category, name and argument keys. *)

type arg = Int of int | Str of string

type phase =
  | Instant
  | Begin
  | End
  | Async_begin of int
  | Async_end of int
  | Counter of int

type sync_kind = Mutex | Cond | Rwlock | Sem | Barrier | Turn

type sync_obj = { obj : int; kind : sync_kind; label : string }
(** A synchronization object: process-unique id, primitive, label.  The
    DMT turn is pseudo-object 0 (lane 0) or [-lane]. *)

type sync_op =
  | Acquire
  | Acquire_rd
  | Release
  | Cond_signal
  | Cond_woken
  | Sem_post
  | Sem_wait
  | Barrier_arrive
  | Barrier_leave

type rx = Syn | Data | Fin  (** transport arrival: connect, bytes, EOF *)

type call = Bubble | Connect | Send | Close
(** The kind of a proposed PAXOS event. *)

type fault =
  | Crash
  | Crash_torn
  | Restart
  | Partition
  | Partition_oneway
  | Heal
  | Replace
  | Autoheal
  | Loss_begin
  | Loss_end
  | Latency_begin
  | Latency_end
  | Skip

(** What happened.  The comment on each group names its exported
    category; DESIGN.md's "Flight recorder" section maps every
    constructor to its ["cat.name"], emitter and consumers. *)
type event =
  (* sim *)
  | Thread_spawn of { thread : string; parent : int }
  | Group_kill of { group : int }
  | Blocked  (** span: an engine thread suspended *)
  (* sync, and the dmt turn-wait span *)
  | Sync of sync_op * sync_obj
  | Cond_wait of { cond : sync_obj; mutex : sync_obj }
  | Thread_exit
  | Thread_join of { joined : int }
  | Turn_wait of { runq : int }
  (* mem *)
  | Mem of { write : bool; loc : int; site : string }
  (* net *)
  | Drop of { src : string; reason : string }
  | Rx of { rx : rx; conn : int; bytes : int }  (** [bytes] exported when > 0 *)
  (* req *)
  | Proposed of { index : int; conn : int; call : call; queued_ns : int; view : int }
  | Lifecycle of { index : int }  (** async span, id = index *)
  | Fsync_done of { index : int }
  | Recv_return of { conn : int; bytes : int }
  | Reply of { conn : int; bytes : int }
  (* proxy *)
  | Batch_flush of { events : int }
  | Bubble_proposed of { nclock : int }
  | Connect_proposed of { conn : int; port : int }
  | Send_proposed of { conn : int; bytes : int }
  | Close_proposed of { conn : int }
  (* read *)
  | Read_lease of { wm : int; epoch : int }
  | Read_backup of { wm : int; stale : int; epoch : int }
  | Read_reject of { why : string }
  (* paxos *)
  | Propose of { index : int; view : int }
  | Decide of { index : int }  (** async span, id = index *)
  | Quorum_ack of { index : int; acks : int }
  | Commit of { index : int }
  | Heartbeat of { view : int; committed : int }
  | Lease_grant of { view : int; until : int }
  | Abdicate of { view : int }
  | Election_start of { view : int }
  | View_change of { view : int; election_ns : int }
  | Compact of { watermark : int; snapshot : int }
  | Snapshot_offer of { index : int; bytes : int }
  | Snapshot_serve of { index : int; dst : string }
  | Snapshot_install of { index : int; behind : int }
  (* member *)
  | Join of { node : string; epoch : int }
  | Leave of { node : string; epoch : int }
  | Fence of { node : string; epoch : int }
  | Reconfig_propose of { epoch : int; members : string list }
  (* seq, gate, exec *)
  | Append of { bubble : bool; depth : int; index : int }
  | Admit of { index : int; conn : int }
  | Gate_block  (** span: the DMT gate waiting on an empty sequence *)
  | Bubble_drain of { clocks : int; bulk : bool }
  | Exec_begin of { index : int; conn : int; lane : int }
  | Exec_end of { conn : int }
  (* wal *)
  | Wal_submit of { bytes : int; group : int; queued : int }
  | Wal_durable of { lat_ns : int; group : int }
  (* counter: the sampled value rides in the [Counter] phase *)
  | Open_conns
  | Admitted
  (* chaos *)
  | Fault of { fault : fault; target : string }  (** [target] exported when non-empty *)

type ev = {
  ts : int;  (** virtual nanoseconds *)
  tid : int;
  group : int;  (** engine thread group, -1 if none *)
  node : string;  (** replica name, "" when only the group is known *)
  ph : phase;
  event : event;
}

type t

val create : ?retain:bool -> ?limit:int -> unit -> t
(** A fresh, enabled recorder.  [retain] (default true) keeps events in
    memory for export; pass [false] for streaming-only aggregation via
    {!add_sink}.  [limit] caps retained events (overflow is counted in
    {!dropped}, never raised). *)

val null : t
(** The shared permanently-disabled sink: the default recorder of every
    engine.  {!set_enabled} is a no-op on it. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val register_group : t -> group:int -> node:string -> unit
(** Attribute an engine thread group to a replica, so engine-level events
    (which only know their group) export under that replica's process. *)

val add_sink : t -> (ev -> unit) -> unit
(** Attach a streaming consumer called on every emitted event (e.g.
    {!Metrics.attach}). *)

val record :
  t -> ts:int -> tid:int -> ?group:int -> ?node:string -> ?ph:phase -> event -> unit
(** Emit one event ([ph] defaults to [Instant]).  A [Begin] is matched
    by the [End] of the same (node, tid, kind); an [Async_begin id] by
    the [Async_end id] of the same kind. *)

val events : t -> ev list
(** Retained events, oldest first. *)

val length : t -> int
val dropped : t -> int

val resolve_node : t -> ev -> string
(** The replica name of an event: explicit [node], else the registered
    name of its group, else "". *)

val fault_name : fault -> string

val describe : ev -> string * string * (string * arg) list
(** The exported category, name and arguments (in wire order) of an
    event.  A span's [End]/[Async_end] record has no arguments. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON (chrome://tracing, Perfetto), timestamps in
    virtual microseconds.  Deterministic: same events, same bytes. *)

val jsonl_line : t -> ev -> string
(** One event as a JSON object line, as {!to_jsonl} writes it. *)

val to_jsonl : t -> string
(** One JSON object per event per line, timestamps in virtual
    nanoseconds.  Deterministic. *)
