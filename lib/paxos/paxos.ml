(* The driver: runs each action of the protocol core (paxos_core.ml) on
   the engine, the fabric and the WAL, in the order the core produced
   it, and feeds their completions back as inputs. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Core = Paxos_core

type config = Core.config = {
  heartbeat_period : Time.t;
  election_timeout : Time.t;
  election_jitter : Time.t;
  round_retry : Time.t;
  compaction_threshold : int;
  catchup_chunk : int;
  suspect_timeout : Time.t;
  lease_duration : Time.t;
  wrap : Core.step -> Core.step;
}

let default_config = Core.default_config
let paxos_port = 1
let histogram_cap = Core.histogram_cap
let is_config_value = Core.is_config_value

type handlers = {
  on_commit : index:int -> string -> unit;
  on_demote : unit -> unit;
  on_config : epoch:int -> Fabric.node list -> unit;
  on_fence : epoch:int -> unit;
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

type t = {
  core : Core.t;
  fabric : Fabric.t;
  eng : Engine.t;
  wal : Wal.t;
  group : Engine.group;
  step : Core.step;
  mutable handlers : handlers;
  mutable hooks : compaction_hooks;
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

let node t = t.core.self
let view t = t.core.view
let primary t = t.core.primary
let is_primary t = Core.is_primary t.core
let committed t = t.core.committed
let applied t = t.core.applied
let base t = t.core.base
let snapshot t = t.core.snapshot
let members t = t.core.members
let epoch t = t.core.epoch
let fenced t = t.core.fenced
let reconfig_pending t = t.core.pending_members <> None
let pending t = Core.pending t.core
let set_handlers t handlers = t.handlers <- handlers
let set_compaction_hooks t hooks = t.hooks <- hooks
let lease_valid t = Core.lease_valid t.core ~now:(Engine.now t.eng)
let suspects t = Core.suspects t.core ~now:(Engine.now t.eng)
let get_committed_range t = Core.get_committed_range t.core

let stats t : stats =
  let c = t.core in
  { decisions = c.decisions; view_changes = c.view_changes; abdications = c.abdications;
    catchup_installed = c.catchup_installed; wal_torn_discarded = c.wal_torn_discarded;
    pending = pending t; last_election_duration = c.last_election_duration;
    batches_committed = c.batches_committed;
    events_per_batch =
      Hashtbl.fold (fun size n acc -> (size, n) :: acc) c.batch_sizes [] |> List.sort compare;
    max_batch = c.max_batch; compactions = c.compactions;
    snapshots_installed = c.snapshots_installed; log_resident = c.resident;
    log_bytes = Crane_storage.Arena.bytes c.store; peak_log_resident = c.peak_log;
    acks_resident = Hashtbl.length c.acks; epoch = c.epoch; reconfigs = c.reconfigs;
    fenced_drops = c.fenced_drops; leases_held = c.leases_held }

let ep node = { Fabric.node; port = paxos_port }

(* Every input runs through the configured step wrapper, at the
   current instant.  An upcall below may re-enter here: the proxy submits
   from [on_commit]. *)
let feed t input = t.step t.core ~now:(Engine.now t.eng) input

let exec t : Core.action -> unit = function
  | Send { dsts; bytes; msg } ->
    let msg = Core.Paxos msg in
    List.iter (fun n -> Fabric.send t.fabric ~bytes ~src:(ep t.core.self) ~dst:(ep n) msg) dsts
  | Reject n -> Fabric.reject t.fabric ~src:(ep n) ~dst:(ep t.core.self) ~reason:"fenced_epoch"
  | Persist { records; fsync } -> Wal.append_async t.wal records (fun () -> feed t (Fsync_done fsync))
  | Truncate { header; watermark } ->
    (* Older truncation headers are superseded by the newer one. *)
    let drop data = match Log_record.index data with Some i -> i <= watermark | None -> true in
    Wal.truncate_to t.wal ~header ~drop ignore
  | Arm { after; timer } -> Engine.after t.eng ~group:t.group after (fun () -> feed t (Timer timer))
  | Deliver { index; value } -> t.handlers.on_commit ~index value
  | Demote -> t.handlers.on_demote ()
  | Config { epoch; members } -> t.handlers.on_config ~epoch members
  | Fence epoch -> t.handlers.on_fence ~epoch
  | Install_snapshot { index; blob } -> t.hooks.install_snapshot ~index blob
  | Compacted watermark -> t.hooks.on_compact ~watermark
  | Trace { ph; ev } -> Engine.emit t.eng ~node:t.core.self ?ph ev

let create ?(config = default_config) ~fabric ~rng ~wal ~members ~node ~group () =
  let eng = Fabric.engine fabric in
  let records =
    List.map (fun (e : Wal.entry) -> if e.torn then None else Some e.data) (Wal.entries wal)
  in
  let core = Core.create ~config ~tracing:(fun () -> Engine.tracing eng) ~rng ~members ~node records in
  let t =
    { core; fabric; eng; wal; group; step = config.wrap Core.step; handlers = null_handlers;
      hooks = null_hooks }
  in
  core.emit <- exec t;
  Fabric.bind fabric (ep node) (fun ~src msg ->
      match msg with
      | Core.Paxos msg when Engine.group_alive eng group -> feed t (Receive { from = src.node; msg })
      | _ -> ());
  Engine.on_kill eng group (fun () -> Fabric.unbind fabric (ep node));
  t

let start t ?(as_primary = false) () = feed t (Start { as_primary })
let offer_snapshot t ~index ~blob = feed t (Offer_snapshot { index; blob })

(* A proposal is the range the step appended to the log. *)
let submit t values =
  let before = t.core.last_index in
  feed t (Submit values);
  if t.core.last_index > before then Some (before + 1, t.core.last_index) else None

let submit_reconfig t members =
  let before = t.core.last_index in
  feed t (Submit_reconfig members);
  if t.core.last_index > before then Some t.core.last_index else None
