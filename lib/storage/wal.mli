(** Write-ahead log on simulated SSD — the Berkeley-DB stand-in of §5.1.

    The paper persists every consensus decision (call type, arguments,
    global index) to a Berkeley DB on SSD.  Here a record is an opaque
    string; an append charges the SSD fsync latency once per group and
    invokes a continuation when the write is stable.
    Contents survive "process crashes" (the records, packed in an arena,
    live outside any engine group), which is what replica recovery replays. *)

type t

type entry = { data : string; torn : bool }
(** A stable record.  [torn] marks the partial tail left by a crash
    mid-append: readers must discard it (its bytes are truncated). *)

val create : ?write_latency:Crane_sim.Time.t -> Crane_sim.Engine.t -> name:string -> t
(** Default write latency 15 us (datacenter NVMe fsync). *)

val name : t -> string

val append_async : t -> string list -> (unit -> unit) -> unit
(** Durable group append (the Berkeley-DB [txn_checkpoint] trick): the
    records land in list order with a {e single} fsync — one
    write-latency charge for the whole group, so a one-record list is a
    plain durable append.  The continuation runs once the entire group is
    stable (at once for an empty list).  A crash mid-group follows the
    usual torn-tail rule: the oldest in-flight record survives as a torn
    partial prefix, the rest are lost. *)

val truncate_to : t -> header:string -> drop:(string -> bool) -> (unit -> unit) -> unit
(** Crash-safe two-phase log truncation.  Durably appends [header] (one
    fsync), then — as a second, later device operation — physically
    removes every intact record {e older than the header} for which
    [drop] returns [true] (older torn tails are removed unconditionally).
    The continuation fires once the prefix is gone.  Crash semantics:
    before the header is stable, the log is untouched (the header itself
    may land torn); between header and drop, both the header and the old
    records survive — recovery must treat records superseded by a header
    as idempotent, and a later re-truncation will drop them. *)

val crash_torn_tail : t -> bool
(** Model a process crash mid-append: the oldest in-flight (submitted,
    not yet stable) record lands as a torn partial tail, younger in-flight
    writes are lost, and none of their continuations ever fire.  Returns
    [true] if a torn record was produced (i.e. a write was in flight). *)

val records : t -> string list
(** All intact stable records, oldest first (torn tails excluded). *)

val entries : t -> entry list
(** All stable records including torn tails, oldest first — what a
    recovery scan actually reads off the device. *)

val length : t -> int
val writes : t -> int
(** Number of durable writes performed (cost accounting). *)

val truncations : t -> int
(** Number of truncations started (header submitted). *)

val dropped : t -> int
(** Total records physically removed by completed truncations. *)

val reset : t -> unit
(** Wipe the log (modelling disk replacement in tests). *)
