(** What the benches share: the modules they all use (each bench opens
    this one), the cluster configs they start from, and one way to boot
    a deployment, drive a closed-loop workload through it to completion
    and check that no simulated thread died.  The CLI's [run], [trace],
    [failover] and [profile] commands use the same helpers. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Paxos = Crane_paxos.Paxos
module Trace = Crane_trace.Trace
module Metrics = Crane_trace.Metrics
module Critical_path = Crane_trace.Critical_path
module Stats = Crane_report.Stats
module Rows = Crane_report.Rows
module Loadgen = Crane_workload.Loadgen
module Servers = Crane_workload.Servers
module Target = Crane_workload.Target
module Ledger = Crane_chaos.Ledger

(** A cluster on [port] under [mode] with the short benchmark Paxos
    timers; every other knob at its default. *)
let fast_cfg ~mode ~port =
  { Instance.default_config with mode; service_port = port; paxos = Servers.fast_paxos }

(** [s]'s config in the paper runs: {!fast_cfg} plus the bubbling knobs
    and [s]'s own container costs. *)
let cluster_cfg ?(wtimeout = Time.us 100) ?(nclock = 1000) ~mode (s : Servers.t) =
  { (fast_cfg ~mode ~port:s.port) with
    wtimeout; nclock; container_stop = s.container_stop; container_start = s.container_start }

(** [s]'s own client: [clients] closed-loop threads issue [requests]
    requests drawn from [rng] against the target. *)
let closed_loop ~clients ~requests ~rng (s : Servers.t) target =
  Loadgen.run ~clients ~requests ~request:(s.request rng) target

(** Boot a three-replica cluster of [server] under [cfg], run it to
    [settle] if given, start [load] against its service port, drive the
    load to completion (or [timeout]), run [linger] more virtual time if
    given, and fail if any simulated thread died. *)
let on_cluster ?trace ?(checkpoints = false) ?settle ?linger ?(timeout = Time.sec 3600)
    ~seed ~cfg ~server load =
  let cl = Cluster.create ~seed ~cfg ?trace ~server () in
  Cluster.start ~checkpoints cl;
  Option.iter (fun until -> Cluster.run ~until cl) settle;
  let target = Target.cluster cl ~port:cfg.Instance.service_port in
  let handle = load cl target in
  Loadgen.drive ~timeout target handle;
  Option.iter (fun d -> Cluster.run ~until:(Engine.now (Cluster.engine cl) + d) cl) linger;
  Cluster.check_failures cl;
  (handle.Loadgen.collect (), cl)

(** {!on_cluster} for one un-replicated server. *)
let on_standalone ?trace ?(timeout = Time.sec 3600) ~seed ~mode ~server ~port load =
  let sa = Standalone.boot ~seed ~mode ?trace ~server () in
  let target = Target.standalone sa ~port in
  let handle = load target in
  Loadgen.drive ~timeout target handle;
  Standalone.check_failures sa;
  handle.Loadgen.collect ()

(** Whether every replica's network output log equals the first's. *)
let consistent cl =
  match Cluster.outputs cl with
  | (_, o1) :: rest -> List.for_all (fun (_, o) -> Output_log.equal o1 o) rest
  | [] -> false
