(** A CRANE instance: one replica's assembly of proxy, PAXOS consensus,
    DMT scheduler, time bubbling, checkpoint component and the server
    program (paper Figure 1). *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Cores = Crane_sim.Cores
module Fabric = Crane_net.Fabric
module Sock = Crane_socket.Sock
module Dmt = Crane_dmt.Dmt
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos
module Memfs = Crane_fs.Memfs
module Fsdiff = Crane_fs.Fsdiff
module Container = Crane_fs.Container
module Manager = Crane_checkpoint.Manager
module Criu = Crane_checkpoint.Criu

type mode =
  | Full  (** DMT + time bubbling: the CRANE system *)
  | No_bubbling  (** plan II of §7.2: DMT + PAXOS, bubbling disabled *)
  | Paxos_only  (** Figure 14's "w/ Paxos only": no DMT *)

type config = {
  mode : mode;
  wtimeout : Time.t;
  nclock : int;
  cores : int;
  service_port : int;
  read_fastpath : bool;
      (** serve the read port (leader-lease + bounded-stale backup reads);
          off = every request funnels through consensus, the pre-lease
          behaviour *)
  read_port : int;  (** client-facing read-fast-path port (all replicas) *)
  turn_cost : Time.t;
  idle_period : Time.t;
  paxos : Paxos.config;
  batch_max : int;
      (** proxy batching: flush a pending batch at this many events
          (1 = batching off, the pre-batching commit path); a non-full
          batch leaves when the round in flight commits *)
  pool_workers : int;
      (** dependency-aware parallel delivery: number of execute-stage
          worker lanes (1 = off, the classic head-of-sequence admission).
          Above 1 requires [Full] or [No_bubbling] mode; committed
          commands with disjoint declared footprints run concurrently on
          separate DMT lanes while conflicting or undeclared commands
          keep total log order *)
  wal_write_latency : Time.t;
      (** per-fsync device latency of each replica's WAL — exposed so the
          what-if profiler can re-run a seed with a scaled flash device
          (e.g. "fsync 2x faster") and measure the end-to-end delta *)
  checkpoint_period : Time.t;
  container_stop : Time.t;  (** LXC stop cost (daemon-dependent, §5.2) *)
  container_start : Time.t;  (** LXC start cost *)
  output_keep : int;
      (** output-log entries retained after a compaction round frees the
          prefix already acked by all peers (older entries fold into a
          chain digest so consistency checks still cover them) *)
}

let default_config =
  {
    mode = Full;
    wtimeout = Time.us 100;
    nclock = 1000;
    cores = 24;
    service_port = 80;
    read_fastpath = true;
    read_port = 10080;
    turn_cost = Time.ns 150;
    idle_period = Time.us 10;
    paxos = Paxos.default_config;
    batch_max = 64;
    pool_workers = 1;
    wal_write_latency = Time.us 15;
    checkpoint_period = Time.sec 60;
    container_stop = Time.ms 1200;
    container_start = Time.ms 2200;
    output_keep = 65536;
  }

type t = {
  node : string;
  group : Engine.group;
  cfg : config;
  fsys : Memfs.t;
  container : Container.t;
  cores : Cores.t;
  vhost : Vhost.t;
  proxy : Proxy.t;
  paxos : Paxos.t;
  dmt : Dmt.t option;
  runtime : Runtime.t;
  handle : Api.handle;
  manager : Manager.t;
}

let vhost_config (cfg : config) =
  {
    Vhost.wtimeout = cfg.wtimeout;
    nclock = cfg.nclock;
    bubbling = (match cfg.mode with Full -> true | No_bubbling | Paxos_only -> false);
    pool = (match cfg.mode with Full | No_bubbling -> cfg.pool_workers | Paxos_only -> 1);
  }

(** Boot a replica.  [skip_upto] > 0 means the server state was restored
    from a checkpoint taken at that global index: decisions up to it are
    not re-delivered.  [preloaded_fs] supplies the restored filesystem. *)
let boot ~eng ~fabric ~world ~rng ~wal ~members ~node ~(cfg : config) ~(server : Api.server)
    ?(skip_upto = 0) ?preloaded_fs ?restore_state ?(as_primary = false)
    ?(on_config = fun ~epoch:_ _ -> ()) ?(on_fence = fun ~epoch:_ -> ()) () =
  let group = Engine.new_group eng in
  Crane_trace.Trace.register_group (Engine.trace eng) ~group ~node;
  Fabric.node_up fabric node;
  (* Late joiners and reboots alike start with a clean transport: stale
     connection state from a previous incarnation of this name is
     discarded before the listener comes up. *)
  Sock.node_booted world node;
  Engine.on_kill eng group (fun () ->
      Fabric.node_down fabric node;
      Sock.node_crashed world node);
  let fsys =
    match preloaded_fs with
    | Some fs -> fs
    | None ->
      let fs = Memfs.create () in
      server.Api.install fs;
      fs
  in
    let container =
    Container.create eng ~name:(node ^ "-lxc") ~stop_cost:cfg.container_stop
      ~start_cost:cfg.container_start fsys
  in
  let cores = Cores.create eng cfg.cores in
  let paxos =
    Paxos.create ~config:cfg.paxos ~fabric ~rng:(Rng.split rng) ~wal ~members ~node
      ~group ()
  in
  let dmt, clocking =
    match cfg.mode with
    | Full | No_bubbling ->
      (* One lane per pool worker, plus lane 0 for the idle thread and
         bootstrap spawns; pool_workers = 1 keeps the classic single
         round-robin queue. *)
      let lanes = if cfg.pool_workers > 1 then cfg.pool_workers + 1 else 1 in
      let dmt =
        Dmt.create ~turn_cost:cfg.turn_cost ~idle_period:cfg.idle_period ~lanes
          eng
      in
      Dmt.set_label dmt node;
      (Some dmt, Vhost.Clocked dmt)
    | Paxos_only -> (None, Vhost.Immediate)
  in
  let vhost = Vhost.create ~node eng ~cfg:(vhost_config cfg) ~clocking in
  let proxy =
    Proxy.create ~eng ~node ~world ~port:cfg.service_port ~paxos ~vhost ~group
      ~skip_upto ~batch_max:cfg.batch_max
      ?read_port:(if cfg.read_fastpath then Some cfg.read_port else None)
      ~on_config ~on_fence ()
  in
  let runtime =
    let sync =
      match dmt with
      | Some dmt -> Runtime.Dmt dmt
      | None -> Runtime.Pthreads (Crane_pthread.Pthread.create eng (Rng.split rng))
    in
    Runtime.create ~eng ~node ~fs:fsys ~cores sync (Runtime.Vhost vhost)
  in
  (* Boot the server program inside the instance. *)
  let handle = server.Api.boot runtime.Runtime.api in
  (match restore_state with Some state -> handle.Api.load_state state | None -> ());
  if cfg.read_fastpath then Proxy.set_read_handler proxy handle.Api.read;
  if cfg.pool_workers > 1 then Vhost.set_footprint vhost handle.Api.footprint;
  let manager =
    (* Quiescence for a checkpoint means no alive connections AND no
       decided-but-unconsumed client calls in the PAXOS sequence: the
       recorded global index must reflect everything the server's state
       embodies, or replay from it would drop requests. *)
    Manager.create eng ~container
      ~state_of:handle.Api.state_of
      ~mem_bytes:handle.Api.mem_bytes
      ~alive_conns:(fun () ->
        runtime.Runtime.alive_conns () + Paxos_seq.queued_calls (Vhost.seq vhost))
      ~global_index:(fun () -> Paxos.applied paxos)
  in
  Paxos.set_compaction_hooks paxos
    {
      (* A snapshot arrived through consensus catch-up and this replica is
         about to fast-forward past [index].  When an out-of-band restore
         (Cluster.restart shipping a checkpoint before boot) already
         covers the index, the state is current and only the bookkeeping
         moves; otherwise install the (process state, filesystem) pair
         and discard any decided-but-unconsumed sequence entries — all at
         or below the snapshot index, and quiescence-gated checkpoints
         guarantee no connection spans the boundary. *)
      Paxos.install_snapshot =
        (fun ~index blob ->
          if index > Proxy.skip_upto proxy then begin
            (match (Marshal.from_string blob 0 : string * Memfs.snapshot) with
            | state, snap ->
              Memfs.restore fsys snap;
              handle.Api.load_state state
            | exception _ -> ());
            Paxos_seq.clear (Vhost.seq vhost);
            Proxy.set_skip_upto proxy index
          end);
      (* The watermark prefix is applied on every live replica: the
         output entries it produced can be folded into the chain digest
         and freed. *)
      on_compact =
        (fun ~watermark:_ ->
          Output_log.trim_to (Vhost.output vhost) ~keep:cfg.output_keep);
    };
  Paxos.start paxos ~as_primary ();
  { node; group; cfg; fsys; container; cores; vhost; proxy; paxos; dmt; runtime;
    handle; manager }

(** Replay decided-but-post-checkpoint socket calls into the server.
    Reconfig entries are consensus-internal (live delivery activates them
    instead of invoking [on_commit]): skip them here too, or replay would
    feed a config payload to [Event.decode]. *)
let replay_from t ~from_index =
  let values =
    Paxos.get_committed_range t.paxos ~lo:from_index ~hi:(Paxos.committed t.paxos)
  in
  List.iteri
    (fun i v ->
      if not (Paxos.is_config_value v) then
        Vhost.deliver t.vhost ~index:(from_index + i) (Event.decode v))
    values

(* The application snapshot consensus disseminates for compaction and
   snapshot catch-up: the CRIU state blob plus the checkpointed
   filesystem (base patched forward), exactly what a restore needs. *)
let snapshot_blob (c : Manager.checkpoint) =
  let fs = Fsdiff.apply ~base:c.Manager.fs_base c.Manager.fs_patch in
  Marshal.to_string (c.Manager.image.Criu.payload, fs) []

let start_checkpointing t =
  Manager.start_periodic t.manager ~period:t.cfg.checkpoint_period
    ~on_checkpoint:(fun c ->
      Paxos.offer_snapshot t.paxos ~index:c.Manager.global_index
        ~blob:(snapshot_blob c))
    ~group:t.group ()

let kill ~eng t =
  Vhost.stop t.vhost;
  (match t.dmt with Some d -> Dmt.stop d | None -> ());
  Proxy.stop t.proxy;
  Engine.kill_group eng t.group

let is_primary t = Paxos.is_primary t.paxos
let output t = Vhost.output t.vhost
let node t = t.node
let seq_stats t = (Paxos_seq.calls (Vhost.seq t.vhost), Paxos_seq.bubbles (Vhost.seq t.vhost))
