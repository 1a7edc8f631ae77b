(** The bundled servers, one row each: how to build the server, where it
    listens, how a benchmark client talks to it, and the sizes and costs
    the paper's evaluation runs it with.  Every front end (the CLI, the
    benches, the paper's §7 runner) reads this one table; each caller
    brings its own cluster config, hints choice and rng seed. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Api = Crane_core.Api
module Paxos = Crane_paxos.Paxos

type t = {
  name : string;
  server : hints:bool -> Api.server;
  hints_available : bool;  (** Apache and Mongoose take the 2-line hints *)
  port : int;
  request : Rng.t -> Target.t -> from:string -> string option;
  clients : int;  (** the paper runs' concurrency *)
  requests : int;  (** the paper runs' full-size request count *)
  container_stop : Time.t;
  container_start : Time.t;
  timeout : Time.t;  (** per-run virtual deadline *)
}

let apachebench _rng t ~from = Clients.apachebench t ~from

let all =
  [ { name = "apache";
      server = (fun ~hints -> Crane_apps.Apache.server
                    ~cfg:{ Crane_apps.Apache.default_config with hints } ());
      hints_available = true; port = 80; request = apachebench;
      clients = 8; requests = 160;
      container_stop = Time.ms 1200; container_start = Time.ms 1800; timeout = Time.sec 600 };
    { name = "mongoose";
      server = (fun ~hints -> Crane_apps.Mongoose.server
                    ~cfg:{ Crane_apps.Mongoose.default_config with hints } ());
      hints_available = true; port = 80; request = apachebench;
      clients = 6; requests = 120;
      container_stop = Time.ms 550; container_start = Time.ms 700; timeout = Time.sec 600 };
    { name = "clamav";
      server = (fun ~hints:_ -> Crane_apps.Clamav.server ());
      hints_available = false; port = 3310;
      request = (fun _rng t ~from -> Clients.clamdscan ~dirs:8 t ~from);
      clients = 8; requests = 96;
      container_stop = Time.ms 1500; container_start = Time.ms 1900; timeout = Time.sec 600 };
    { name = "mediatomb";
      server = (fun ~hints:_ -> Crane_apps.Mediatomb.server ());
      hints_available = false; port = 49152;
      request = (fun _rng t ~from -> Clients.mediabench t ~from);
      clients = 4; requests = 12;
      container_stop = Time.ms 1000; container_start = Time.ms 1600; timeout = Time.sec 1200 };
    { name = "mysql";
      server = (fun ~hints:_ -> Crane_apps.Mysql.server ());
      hints_available = false; port = 3306;
      request = (fun rng t ~from -> Clients.sysbench ~rng ~ntables:16 ~rows:2000 t ~from);
      clients = 8; requests = 240;
      container_stop = Time.ms 1300; container_start = Time.ms 2000; timeout = Time.sec 600 } ]

(** Paxos timers shortened from the paper's 1 s heartbeat / 3 s election
    timeout, so elections settle quickly in short benchmark runs. *)
let fast_paxos =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 200; election_timeout = Time.ms 600;
    election_jitter = Time.ms 100; round_retry = Time.ms 200 }

(** The row named [name]; raises [Not_found]. *)
let find name = List.find (fun s -> s.name = name) all
