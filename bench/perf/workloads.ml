(** The four workloads and the measured run they share.

    Every run boots a fresh 3-replica cluster from
    [Instance.default_config] (Full mode: DMT plus time bubbling, proxy
    batching at 64 events or 100 us, read fast path on) with four
    execution lanes and fast Paxos timers, lets the election settle for
    800 ms of virtual time, then drives an open-loop schedule: each
    arrival spawns one simulated client at its due instant, and latency
    runs from the due instant to the complete reply.  A request fails if
    it errs after its retries, or is unfinished 5 s of virtual time after
    the last arrival. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Cluster = Crane_core.Cluster
module Instance = Crane_core.Instance
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Api = Crane_core.Api
module Paxos = Crane_paxos.Paxos
module Sock = Crane_socket.Sock
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Loadgen = Crane_workload.Loadgen
module Ledger = Crane_chaos.Ledger
module Mysql = Crane_apps.Mysql
module Trace = Crane_trace.Trace
module Gen = Crane_perf.Gen

type app = Sql | Ledger_app

type spec = {
  name : string;
  app : app;
  rate : float;  (** nominal Poisson rate, arrivals per virtual second *)
  arrivals : int;  (** arrivals in a measured run *)
  traced_arrivals : int;  (** arrivals in the traced run *)
  schedule : seed:int -> rate:float -> int -> Gen.arrival array;
  retries : int;
  failover : bool;
}

let cluster_seed = 42
let settle = Time.ms 800
let drain_deadline = Time.sec 5

(* Failover timeline, relative to the first arrival. *)
let kill_after = Time.ms 1500
let replace_after = Time.ms 200
let fresh_replica = "replica4"

let retry_step = Time.ms 50

let specs =
  [
    (* Bound by execution: DMT lanes, pool admission and the app do most
       of the work.  The only workload whose capacity (about 5000 rps)
       lies inside the host budget.  5000 arrivals give the 20% writes a
       supported p99. *)
    {
      name = "oltp";
      app = Sql;
      rate = 2000.0;
      arrivals = 5000;
      traced_arrivals = 250;
      schedule = (fun ~seed ~rate n -> Gen.oltp ~seed ~rate ~write_pct:20 n);
      retries = 0;
      failover = false;
    };
    (* The most commit-path work per host second: proxy batching, Accept
       rounds, WAL group commit and the fabric.  Execute time is about 0,
       and every PUT conflicts on the ledger, so the pool admits them in
       log order. *)
    {
      name = "ledger-write";
      app = Ledger_app;
      rate = 10000.0;
      arrivals = 20000;
      traced_arrivals = 10000;
      schedule = (fun ~seed ~rate n -> Gen.puts ~seed ~stream:"ledger-write" ~rate n);
      retries = 0;
      failover = false;
    };
    (* The same proxy and consensus code used differently: reads skip
       consensus, the WAL and DMT, so a commit-path change should not move
       it, and a read-path change that taxes writes shows in the write
       tail.  A GET reply grows with the ledger. *)
    {
      name = "ledger-readmix";
      app = Ledger_app;
      rate = 20000.0;
      arrivals = 20000;
      traced_arrivals = 10000;
      schedule =
        (fun ~seed ~rate n -> Gen.readmix ~seed ~rate ~write_pct:5 n);
      retries = 0;
      failover = false;
    };
    (* Election, failure detection, joint-quorum reconfiguration,
       catch-up and checkpoints run only here. *)
    {
      name = "failover";
      app = Ledger_app;
      rate = 1000.0;
      arrivals = 4000;
      traced_arrivals = 3000;
      schedule = (fun ~seed ~rate n -> Gen.puts ~seed ~stream:"failover" ~rate n);
      retries = 8;
      failover = true;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ------------------------------------------------------------------ *)
(* The system under test. *)

let fast_paxos =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 200; election_timeout = Time.ms 600;
    election_jitter = Time.ms 100; round_retry = Time.ms 200 }

(* The timers of the reconfiguration bench: failure detection fast
   enough that the outage, not the detector, dominates. *)
let failover_paxos =
  { Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 100; election_timeout = Time.ms 300;
    election_jitter = Time.ms 50; round_retry = Time.ms 100 }

let port spec = match spec.app with Sql -> 3306 | Ledger_app -> 80

(* The data-file ballast of the default mysql config only sizes
   filesystem checkpoints, which oltp never takes; keeping 200 MB of it
   per replica would make memory, not the system, the measurement. *)
let server spec =
  match spec.app with
  | Sql -> Mysql.server ~cfg:{ Mysql.default_config with Mysql.db_file_bytes = 4096 } ()
  | Ledger_app -> Ledger.server

let config spec =
  {
    Instance.default_config with
    Instance.pool_workers = 4;
    service_port = port spec;
    paxos = (if spec.failover then failover_paxos else fast_paxos);
    checkpoint_period =
      (if spec.failover then Time.sec 2 else Instance.default_config.Instance.checkpoint_period);
  }

(* Where requests go.  [lease] and [stale] are the read-port targets
   (primary, and backups first); a standalone server has none. *)
type system = {
  eng : Engine.t;
  service : Target.t;
  lease : Target.t option;
  stale : Target.t option;
}

(* ------------------------------------------------------------------ *)
(* Clients. *)

(* A fixed pool of client hosts: every arrival is its own client thread,
   but the fabric sees a bounded set of peers. *)
let client_hosts = Array.init 32 (fun i -> Printf.sprintf "client%02d" i)

let contains s sub = Crane_apps.Str_util.find_sub s sub <> None

let statement = function
  | Gen.Select { table; id } -> Printf.sprintf "SELECT c FROM sbtest%d WHERE id=%d\n" table id
  | Gen.Update { table; id; value } ->
    Printf.sprintf "UPDATE sbtest%d SET c=%d WHERE id=%d\n" table value id
  | Gen.Put | Gen.Get _ -> invalid_arg "Workloads.statement"

(* SysBench-style: handshake, one statement, close. *)
let sql_request sys ~from op =
  match Target.connect sys.service ~from with
  | None -> None
  | Some conn ->
    let reply =
      match Clients.read_until conn ~stop:(fun r -> contains r "ready") with
      | None -> None
      | Some _banner ->
        Sock.send conn (statement op);
        Clients.read_until conn ~stop:(fun r -> contains r "\n")
    in
    Sock.close conn;
    reply

let sql_reply_ok op reply =
  match op with
  | Gen.Select { id; _ } -> String.starts_with ~prefix:(Printf.sprintf "row id=%d c=" id) reply
  | Gen.Update _ -> reply = "OK 1 row affected\n"
  | Gen.Put | Gen.Get _ -> false

(* What a ledger read returned: the id list's byte length and its last
   id.  Every replica's ledger is a prefix of one commit order, so the
   pair pins the reply to a prefix of the final ledger. *)
type read_seen = { due_abs : Time.t; lease_read : bool; ids_len : int; last_id : string }

let parse_ids reply =
  let n = String.length reply in
  if n >= 5 && String.sub reply 0 4 = "IDS " && reply.[n - 1] = '\n' then
    let ids_len = n - 5 in
    let last_id =
      match String.rindex_opt reply ',' with
      | Some i -> String.sub reply (i + 1) (n - i - 2)
      | None -> String.sub reply 4 ids_len
    in
    Some (ids_len, last_id)
  else None

(* ------------------------------------------------------------------ *)
(* A measured run. *)

type outcome = {
  n : int;
  lat : Time.t array;  (** per arrival; -1 when it did not succeed *)
  done_at : Time.t array;  (** completion instant per arrival, -1 if none *)
  writes : bool array;
  failed : int;  (** erred after retries, or unfinished at the deadline *)
  bad_replies : string list;  (** malformed or wrong replies, first few *)
  late_max : Time.t;  (** how late the generator started a client *)
  host_s : float;  (** CPU seconds of the measured phase *)
  acks : (Time.t * string) list;  (** acknowledged ledger ids, newest first *)
  reads : read_seen list;
  ledger : Ledger.client;
  dead : string option;  (** the replica the failover killed *)
}

(* Drive [sys] through [arrivals], the first one due now.  [before_first]
   gets that instant before anything runs (failover arms its kill from
   it).  Returns once every request finished or the deadline passed. *)
let drive spec sys arrivals ~before_first =
  let eng = sys.eng in
  let n = Array.length arrivals in
  let t0 = Engine.now eng in
  let lat = Array.make n (-1) and done_at = Array.make n (-1) in
  let writes = Array.map (fun a -> Gen.is_write a.Gen.op) arrivals in
  let finished = ref 0 and failed = ref 0 in
  let bad = ref [] and nbad = ref 0 in
  let late_max = ref 0 in
  let acks = ref [] and reads = ref [] in
  let ledger = Ledger.client () in
  let note_bad msg =
    incr nbad;
    if !nbad <= 5 then bad := msg :: !bad
  in
  let attempt i (a : Gen.arrival) ~from =
    match a.Gen.op with
    | (Gen.Select _ | Gen.Update _) as op -> (
      match sql_request sys ~from op with
      | Some r when sql_reply_ok op r -> `Ok
      | Some r ->
        note_bad (Printf.sprintf "arrival %d: %S -> %S" i (statement op) r);
        `Bad
      | None -> `Retry)
    | Gen.Put -> (
      match Ledger.request ledger sys.service ~from with
      | Some r ->
        let id = String.trim (String.sub r 3 (String.length r - 3)) in
        acks := (Engine.now eng, id) :: !acks;
        `Ok
      | None -> `Retry)
    | Gen.Get { lease } -> (
      let reply =
        match (if lease then sys.lease else sys.stale) with
        | Some rtarget -> Ledger.read_request ~rtarget ~target:sys.service ~from
        | None -> Ledger.consensus_get sys.service ~from
      in
      match reply with
      | None -> `Retry
      | Some r -> (
        match parse_ids r with
        | Some (ids_len, last_id) ->
          reads :=
            { due_abs = t0 + a.Gen.due; lease_read = lease; ids_len; last_id } :: !reads;
          `Ok
        | None ->
          note_bad (Printf.sprintf "arrival %d: GET -> %S" i r);
          `Bad))
  in
  let client i (a : Gen.arrival) () =
    let due = t0 + a.Gen.due in
    late_max := max !late_max (Engine.now eng - due);
    let from = client_hosts.(i mod Array.length client_hosts) in
    let rec go tries =
      match attempt i a ~from with
      | `Ok ->
        let now = Engine.now eng in
        lat.(i) <- now - due;
        done_at.(i) <- now
      | `Bad -> incr failed
      | `Retry when tries < spec.retries ->
        let jitter = Loadgen.backoff_jitter ~seed:0 ~from ~tries retry_step in
        Engine.sleep eng ((retry_step * (tries + 1)) + jitter);
        go (tries + 1)
      | `Retry -> incr failed
    in
    go 0;
    incr finished
  in
  (* The open-loop generator: one callback per arrival, each arming the
     next, so the event queue holds one pending arrival at a time. *)
  let rec fire i =
    Engine.spawn eng ~name:"bench-client" (client i arrivals.(i));
    if i + 1 < n then Engine.at eng (t0 + arrivals.(i + 1).Gen.due) (fun () -> fire (i + 1))
  in
  let h0 = Sys.time () in
  before_first t0;
  Engine.at eng (t0 + arrivals.(0).Gen.due) (fun () -> fire 0);
  let deadline = t0 + arrivals.(n - 1).Gen.due + drain_deadline in
  while !finished < n && Engine.now eng < deadline do
    Engine.run ~until:(min deadline (Engine.now eng + Time.ms 50)) eng
  done;
  let host_s = Sys.time () -. h0 in
  {
    n;
    lat;
    done_at;
    writes;
    failed = !failed + (n - !finished);
    bad_replies = List.rev !bad;
    late_max = !late_max;
    host_s;
    acks = !acks;
    reads = !reads;
    ledger;
    dead = None;
  }

(* ------------------------------------------------------------------ *)
(* Cluster lifecycle. *)

type crane = {
  cluster : Cluster.t;
  setup_s : float;  (** CPU seconds: create + start + election settle *)
}

(* A recorder is paused while the election settles: the idle cluster's
   scheduler churn would fill it before the first arrival.  It records
   the boot itself, which names each replica's thread group.  A failover
   records the settle too: the replacement re-commits the whole log, and
   a commit whose proposal went unrecorded counts against coverage. *)
let boot ?trace spec ~calls =
  let h0 = Sys.time () in
  let cluster =
    Cluster.create ~seed:cluster_seed ~cfg:(config spec) ?trace
      ~server:(Probes.wrap_server calls (server spec))
      ()
  in
  Cluster.start ~checkpoints:spec.failover cluster;
  let record on = if not spec.failover then Option.iter (fun tr -> Trace.set_enabled tr on) trace in
  record false;
  Cluster.run ~until:settle cluster;
  record true;
  { cluster; setup_s = Sys.time () -. h0 }

let cluster_system spec c =
  let read_port = (config spec).Instance.read_port in
  {
    eng = Cluster.engine c;
    service = Target.cluster c ~port:(port spec);
    lease =
      (match spec.app with
      | Ledger_app -> Some (Target.cluster c ~port:read_port)
      | Sql -> None);
    stale =
      (match spec.app with
      | Ledger_app -> Some (Target.cluster_backups c ~port:read_port)
      | Sql -> None);
  }

let run_crane spec c arrivals =
  let eng = Cluster.engine c in
  let dead = ref None in
  let before_first t0 =
    if spec.failover then
      Engine.at eng (t0 + kill_after) (fun () ->
          match Cluster.primary_node c with
          | Some p ->
            dead := Some p;
            Cluster.kill c p;
            Engine.after eng replace_after (fun () ->
                Cluster.replace_replica c ~dead:p ~fresh:fresh_replica)
          | None -> ())
  in
  let o = drive spec (cluster_system spec c) arrivals ~before_first in
  { o with dead = !dead }

(* The paper's Figure 14 baseline: the same server, un-replicated, under
   native Pthreads, fed the same arrivals. *)
let run_native spec arrivals =
  let sa = Standalone.boot ~seed:cluster_seed ~mode:Standalone.Native ~server:(server spec) () in
  let sys =
    { eng = Standalone.engine sa; service = Target.standalone sa ~port:(port spec);
      lease = None; stale = None }
  in
  (* Same settle as the cluster, so arrival instants line up. *)
  Engine.run ~until:settle sys.eng;
  let o = drive { spec with retries = 0 } sys arrivals ~before_first:(fun _ -> ()) in
  Standalone.check_failures sa;
  o

(* Before anything is inspected, let trailing commits and backup
   admissions land; after a failover, also let the replacement catch up.
   A traced run records the first [traced_drain] of it, enough for the
   last span DAGs to complete; a failover's lagging replicas admit late,
   so there the whole drain is recorded. *)
let drain spec = if spec.failover then Time.sec 3 else Time.ms 500
let traced_drain spec = if spec.failover then drain spec else Time.ms 100

let quiesce ?trace spec c =
  let eng = Cluster.engine c in
  let t0 = Engine.now eng in
  Cluster.run ~until:(t0 + traced_drain spec) c;
  Option.iter (fun tr -> Trace.set_enabled tr false) trace;
  Cluster.run ~until:(t0 + drain spec) c

(* ------------------------------------------------------------------ *)
(* Output checks: each returns the names of the checks that failed. *)

let state_of inst = inst.Instance.handle.Api.state_of ()

(* Parallel delivery runs footprint-disjoint commands on separate lanes,
   so two replicas may interleave the outputs of different connections
   differently; each connection's output stream must still match byte
   for byte.  Logs that folded a prefix into their digest are compared
   whole. *)
let outputs_equal a b =
  let streams log =
    List.stable_sort
      (fun (x : Output_log.entry) y -> compare x.Output_log.conn y.Output_log.conn)
      (Output_log.entries log)
    |> List.map (fun (e : Output_log.entry) ->
           (e.Output_log.conn, Output_log.normalize_payload e.Output_log.payload))
  in
  if Output_log.dropped a = 0 && Output_log.dropped b = 0 then streams a = streams b
  else Output_log.equal a b

let check_outputs spec c (o : outcome) =
  let fails = ref [] in
  let fail name = fails := name :: !fails in
  (try Cluster.check_failures c with Failure _ -> fail "thread_failures");
  if o.bad_replies <> [] then fail "replies";
  if o.late_max <> 0 then fail "generator_late";
  let live = Cluster.instances c in
  (match List.map (fun (_, inst) -> state_of inst) live with
  | s :: rest when List.for_all (String.equal s) rest -> ()
  | _ -> fail "replica_states_equal");
  if not spec.failover then begin
    match Cluster.outputs c with
    | (_, first) :: rest ->
      if not (List.for_all (fun (_, out) -> outputs_equal first out) rest) then
        fail "output_logs_equal"
    | [] -> fail "output_logs_equal"
  end;
  (match spec.app with
  | Sql -> ()
  | Ledger_app ->
    let acked = Ledger.acked_ids o.ledger in
    let all_present =
      List.for_all
        (fun (_, inst) ->
          let have = Hashtbl.create 4096 in
          List.iter (fun id -> Hashtbl.replace have id ()) (Ledger.ids_of_state (state_of inst));
          List.for_all (fun id -> Hashtbl.mem have id) acked)
        live
    in
    if live = [] || not all_present then fail "acked_ids_present";
    (* Reads: each reply is a prefix of the final ledger, and a lease
       read saw every id acknowledged before it was due. *)
    if o.reads <> [] then begin
      match Cluster.primary c with
      | None -> fail "reads_prefix"
      | Some (_, inst) ->
        let final = state_of inst in
        let flen = String.length final in
        let end_of = Hashtbl.create 4096 in
        let pos = ref 0 in
        List.iter
          (fun id ->
            pos := !pos + String.length id;
            Hashtbl.replace end_of id !pos;
            incr pos)
          (Ledger.ids_of_state final);
        let prefix_ok r =
          r.ids_len = 0
          || r.ids_len <= flen
             && (r.ids_len = flen || final.[r.ids_len] = ',')
             && Hashtbl.find_opt end_of r.last_id = Some r.ids_len
        in
        if not (List.for_all prefix_ok o.reads) then fail "reads_prefix";
        let acks = Array.of_list (List.rev o.acks) in
        let lease_reads =
          List.filter (fun r -> r.lease_read) o.reads
          |> List.sort (fun a b -> compare a.due_abs b.due_abs)
        in
        let k = ref 0 and need = ref 0 in
        let fresh =
          List.for_all
            (fun r ->
              while !k < Array.length acks && fst acks.(!k) < r.due_abs do
                need :=
                  max !need
                    (Option.value (Hashtbl.find_opt end_of (snd acks.(!k))) ~default:max_int);
                incr k
              done;
              !need <= r.ids_len)
            lease_reads
        in
        if not fresh then fail "lease_reads_fresh"
    end);
  (if spec.failover then
     let members = Cluster.members c in
     let replaced =
       List.mem fresh_replica members
       && Cluster.instance c fresh_replica <> None
       && match o.dead with Some d -> not (List.mem d members) | None -> false
     in
     if not replaced then fail "failover_replaced");
  List.rev !fails
