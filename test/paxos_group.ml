(* A raw-PAXOS replica group for tests: one fabric, one consensus
   component per node, and per-node WALs that outlive kills, so a node
   added again under the same name recovers from its previous
   incarnation's log.  Each node records what it applied and every
   configuration change it saw. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Wal = Crane_storage.Wal
module Paxos = Crane_paxos.Paxos

type node = {
  n_name : string;
  n_p : Paxos.t;
  n_group : Engine.group;
  n_log : string list ref;  (* applied values, newest first *)
  n_configs : (int * string list) list ref;  (* activations, newest first *)
  n_fenced_at : int option ref;
}

type t = {
  eng : Engine.t;
  fabric : Fabric.t;
  config : Paxos.config;
  members : string list;
  mutable nodes : node list;
  wals : (string, Wal.t) Hashtbl.t;
}

(* LAN-scale failure detection, so elections settle inside short runs. *)
let fast_config =
  {
    Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    lease_duration = Time.ms 150;
  }

let create ?(seed = 11) ?(config = fast_config) ?(members = [ "n1"; "n2"; "n3" ]) () =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create seed) in
  { eng; fabric; config; members; nodes = []; wals = Hashtbl.create 4 }

(* Boot [name] with the group's config.  [members] defaults to the boot
   membership; a joiner boots with the configuration that admitted it.
   [on_commit] runs after the node records each applied value. *)
let add_node ?members ?(on_commit = fun ~index:_ _ -> ()) t name =
  let wal =
    match Hashtbl.find_opt t.wals name with
    | Some w -> w
    | None ->
      let w = Wal.create t.eng ~name in
      Hashtbl.add t.wals name w;
      w
  in
  let group = Engine.new_group t.eng in
  let p =
    Paxos.create ~config:t.config ~fabric:t.fabric ~rng:(Rng.create (Hashtbl.hash name))
      ~wal ~members:(Option.value members ~default:t.members) ~node:name ~group ()
  in
  let log = ref [] and configs = ref [] and fenced_at = ref None in
  Paxos.set_handlers p
    { Paxos.on_commit =
        (fun ~index v ->
          log := v :: !log;
          on_commit ~index v);
      on_demote = (fun () -> ());
      on_config = (fun ~epoch members -> configs := (epoch, members) :: !configs);
      on_fence = (fun ~epoch -> fenced_at := Some epoch) };
  Paxos.start p ();
  Fabric.node_up t.fabric name;
  let n =
    { n_name = name; n_p = p; n_group = group; n_log = log; n_configs = configs;
      n_fenced_at = fenced_at }
  in
  t.nodes <- t.nodes @ [ n ];
  n

(* A group with every boot member up. *)
let start ?seed ?config ?members () =
  let t = create ?seed ?config ?members () in
  let nodes = List.map (fun name -> add_node t name) t.members in
  (t, nodes)

let applied_log n = List.rev !(n.n_log)
let find t name = List.find_opt (fun n -> n.n_name = name) t.nodes
let find_primary t = List.find_opt (fun n -> Paxos.is_primary n.n_p) t.nodes

let kill_node t name =
  match find t name with
  | Some n ->
    Engine.kill_group t.eng n.n_group;
    Fabric.node_down t.fabric name;
    t.nodes <- List.filter (fun n -> n.n_name <> name) t.nodes
  | None -> ()
