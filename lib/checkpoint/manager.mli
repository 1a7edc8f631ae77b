(** The checkpoint component (paper §2.1, §5.2).

    Runs on one backup replica.  A checkpoint operation:

    + CRIU-dumps the server process (its state blob + memory-size cost);
    + stops the LXC container and generates an incremental textual diff of
      the server's working/installation directories against the base
      snapshot;
    + restarts the container and CRIU-restores the process.

    Each checkpoint is associated with the PAXOS global index current at
    dump time, so recovery restores the snapshot and replays decided
    socket calls from that index.  Because checkpointing a live TCP stack
    is notoriously hard, the manager backs off while the server has alive
    connections and retries a few seconds later (the paper's trick). *)

type timings = {
  c_process : Crane_sim.Time.t;  (** CRIU dump ("C p" in Table 2) *)
  c_fs : Crane_sim.Time.t;  (** stop + diff + restart ("C fs") *)
}

type restore_timings = {
  r_process : Crane_sim.Time.t;  (** CRIU restore ("R p") *)
  r_fs : Crane_sim.Time.t;  (** patch application ("R fs") *)
}

type checkpoint = {
  global_index : int;
  image : Criu.image;
  fs_patch : Crane_fs.Fsdiff.patch;
  fs_base : Crane_fs.Memfs.snapshot;
  taken_at : Crane_sim.Time.t;
  timings : timings;
}

type t

val create :
  ?max_backoffs:int ->
  Crane_sim.Engine.t ->
  container:Crane_fs.Container.t ->
  state_of:(unit -> string) ->
  mem_bytes:(unit -> int) ->
  alive_conns:(unit -> int) ->
  global_index:(unit -> int) ->
  t
(** [max_backoffs] (default 20, i.e. 10 s of 500 ms retries) bounds the
    alive-connection back-off: streaming clients that never drain would
    otherwise wedge the checkpointer forever. *)

val checkpoint_now : t -> checkpoint option
(** Blocking (simulated thread); performs the three steps above,
    including the alive-connection back-off.  [None] when connections
    never drained within [max_backoffs] retries — the round is skipped
    and counted in {!checkpoints_skipped}. *)

val latest : t -> checkpoint option

val restore : t -> checkpoint -> string * restore_timings
(** Blocking.  Applies the filesystem patch to the base snapshot, writes
    it into the container's filesystem, restarts the container, restores
    the process image, and returns the state blob. *)

val start_periodic :
  t ->
  ?period:Crane_sim.Time.t ->
  ?on_checkpoint:(checkpoint -> unit) ->
  group:Crane_sim.Engine.group ->
  unit ->
  unit
(** Checkpoint every [period] (default one minute, as in the paper) until
    the group dies.  [on_checkpoint] fires after each successful round
    (the instance uses it to hand the snapshot to consensus for
    compaction); skipped rounds fire nothing. *)

val checkpoints_taken : t -> int
val backoffs : t -> int

val checkpoints_skipped : t -> int
(** Checkpoint rounds abandoned because connections never drained. *)
