module Time = Crane_sim.Time
module Fabric = Crane_net.Fabric
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

exception Connection_refused of Fabric.node * int
exception Connection_closed

let transport_port = 0

type conn = {
  cid : int;
  w : world;
  local : Fabric.node;
  remote : Fabric.node;
  rx : Bytestream.t;
  mutable eof : bool; (* peer closed or crashed *)
  mutable closed : bool; (* this side closed *)
  rx_waiters : (unit -> bool) Queue.t;
}

and listener = {
  lw : world;
  lnode : Fabric.node;
  lport : int;
  backlog : conn Queue.t;
  accept_waiters : (unit -> bool) Queue.t;
  mutable lclosed : bool;
}

and world = {
  fabric : Fabric.t;
  eng : Engine.t;
  mutable next_cid : int;
  conns : (Fabric.node * int, conn) Hashtbl.t;
  listeners : (Fabric.node * int, listener) Hashtbl.t;
  pending_connects : (int, bool -> bool) Hashtbl.t;
  bound : (Fabric.node, unit) Hashtbl.t;
}

type Fabric.message +=
  | Syn of { cid : int; dst_port : int }
  | Syn_ack of { cid : int }
  | Rst of { cid : int }
  | Data of { cid : int; payload : string }
  | Fin of { cid : int }

(* Wake the first still-live waiter in a queue. *)
let rec wake_one q =
  match Queue.take_opt q with
  | None -> ()
  | Some wake -> if not (wake ()) then wake_one q

let wake_all q =
  while not (Queue.is_empty q) do
    ignore ((Queue.pop q) ())
  done

let mark_eof c =
  if not c.eof then begin
    c.eof <- true;
    wake_all c.rx_waiters
  end

let ep node = { Fabric.node; port = transport_port }

(* Transport-delivery instants: connection ids are allocated once per
   connection and shared by both endpoints, so an rx event on the serving
   replica anchors the client-queueing stage of a request span, and one on
   the client's node anchors the reply stage. *)
let rx_event w ~node rx ~cid ~bytes =
  if Engine.tracing w.eng then Engine.emit w.eng ~node (Trace.Rx { rx; conn = cid; bytes })

let handle w ~node ~src msg =
  let find cid = Hashtbl.find_opt w.conns (node, cid) in
  match msg with
  | Syn { cid; dst_port } -> (
    match Hashtbl.find_opt w.listeners (node, dst_port) with
    | Some l when not l.lclosed ->
      let c =
        {
          cid;
          w;
          local = node;
          remote = src.Fabric.node;
          rx = Bytestream.create ();
          eof = false;
          closed = false;
          rx_waiters = Queue.create ();
        }
      in
      Hashtbl.replace w.conns (node, cid) c;
      rx_event w ~node Trace.Syn ~cid ~bytes:0;
      Queue.add c l.backlog;
      wake_one l.accept_waiters;
      Fabric.send w.fabric ~src:(ep node) ~dst:src (Syn_ack { cid })
    | Some _ | None ->
      Fabric.send w.fabric ~src:(ep node) ~dst:src (Rst { cid }))
  | Syn_ack { cid } -> (
    match Hashtbl.find_opt w.pending_connects cid with
    | Some wake ->
      Hashtbl.remove w.pending_connects cid;
      ignore (wake true)
    | None -> ())
  | Rst { cid } -> (
    match Hashtbl.find_opt w.pending_connects cid with
    | Some wake ->
      Hashtbl.remove w.pending_connects cid;
      ignore (wake false)
    | None -> ( match find cid with Some c -> mark_eof c | None -> ()))
  | Data { cid; payload } -> (
    match find cid with
    | Some c when not c.closed ->
      rx_event w ~node Trace.Data ~cid ~bytes:(String.length payload);
      Bytestream.push c.rx payload;
      wake_one c.rx_waiters
    | Some _ | None -> ())
  | Fin { cid } -> (
    match find cid with
    | Some c ->
      rx_event w ~node Trace.Fin ~cid ~bytes:0;
      mark_eof c
    | None -> ())
  | _ -> ()

let ensure_bound w node =
  if not (Hashtbl.mem w.bound node) then begin
    Hashtbl.add w.bound node ();
    Fabric.bind w.fabric (ep node) (fun ~src msg -> handle w ~node ~src msg)
  end

let world fabric =
  {
    fabric;
    eng = Fabric.engine fabric;
    next_cid = 1;
    conns = Hashtbl.create 256;
    listeners = Hashtbl.create 16;
    pending_connects = Hashtbl.create 16;
    bound = Hashtbl.create 16;
  }

let listen w ~node ~port =
  ensure_bound w node;
  if Hashtbl.mem w.listeners (node, port) then
    invalid_arg (Printf.sprintf "Sock.listen: %s:%d already bound" node port);
  let l =
    {
      lw = w;
      lnode = node;
      lport = port;
      backlog = Queue.create ();
      accept_waiters = Queue.create ();
      lclosed = false;
    }
  in
  Hashtbl.replace w.listeners (node, port) l;
  l

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    Hashtbl.remove l.lw.listeners (l.lnode, l.lport);
    wake_all l.accept_waiters
  end

let pending l = Queue.length l.backlog

let wait_acceptable ?timeout l =
  if not (Queue.is_empty l.backlog) then true
  else if l.lclosed then false
  else begin
    let wait wake = Queue.add wake l.accept_waiters in
    (match timeout with
    | None -> Engine.suspend l.lw.eng wait
    | Some d -> ignore (Engine.suspend_timeout l.lw.eng d wait));
    not (Queue.is_empty l.backlog)
  end

let rec accept l =
  match Queue.take_opt l.backlog with
  | Some c -> c
  | None ->
    if l.lclosed then raise Connection_closed;
    Engine.suspend l.lw.eng (fun wake -> Queue.add wake l.accept_waiters);
    accept l

let connect w ~from ~node ~port =
  ensure_bound w from;
  let cid = w.next_cid in
  w.next_cid <- cid + 1;
  let c =
    {
      cid;
      w;
      local = from;
      remote = node;
      rx = Bytestream.create ();
      eof = false;
      closed = false;
      rx_waiters = Queue.create ();
    }
  in
  Hashtbl.replace w.conns (from, cid) c;
  Fabric.send w.fabric ~src:(ep from) ~dst:(ep node) (Syn { cid; dst_port = port });
  (* Connect timeout: a dead or partitioned server refuses after 1s. *)
  let ok =
    match
      Engine.suspend_timeout w.eng (Time.sec 1) (fun wake ->
          Hashtbl.replace w.pending_connects cid wake)
    with
    | Some ok -> ok
    | None ->
      Hashtbl.remove w.pending_connects cid;
      false
  in
  if not ok then begin
    Hashtbl.remove w.conns (from, cid);
    raise (Connection_refused (node, port))
  end;
  c

let send (c : conn) payload =
  if c.closed then raise Connection_closed;
  if (not c.eof) && String.length payload > 0 then
    Fabric.send c.w.fabric ~src:(ep c.local) ~dst:(ep c.remote)
      (Data { cid = c.cid; payload })

let rec recv ?timeout (c : conn) ~max =
  if not (Bytestream.is_empty c.rx) then Bytestream.take c.rx ~max
  else if c.eof || c.closed then ""
  else
    let wait wake = Queue.add wake c.rx_waiters in
    match timeout with
    | None ->
      Engine.suspend c.w.eng wait;
      recv c ~max
    | Some d -> (
      match Engine.suspend_timeout c.w.eng d wait with
      | Some () -> recv ?timeout c ~max
      (* Timed out: whatever arrived meanwhile, or "". *)
      | None -> Bytestream.take c.rx ~max)

(* A closed connection leaves the table: it drops incoming [Data] and
   [Fin]/[Rst] would only mark EOF on it, so a missing entry behaves the
   same and the table holds open connections only. *)
let close (c : conn) =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove c.w.conns (c.local, c.cid);
    if not c.eof then
      Fabric.send c.w.fabric ~src:(ep c.local) ~dst:(ep c.remote)
        (Fin { cid = c.cid });
    wake_all c.rx_waiters
  end

let id (c : conn) = c.cid
let closed (c : conn) = c.closed

(* A node (re)joining the world — a reboot or a reconfiguration booting a
   fresh replacement: make sure its transport is bound and clear any
   connection state a previous incarnation of the same name left behind,
   so the new instance starts from a clean table instead of inheriting
   half-open streams. *)
let node_booted w node =
  let stale =
    Hashtbl.fold
      (fun (n, cid) c acc -> if n = node then ((n, cid), c) :: acc else acc)
      w.conns []
  in
  List.iter
    (fun (key, c) ->
      mark_eof c;
      Hashtbl.remove w.conns key)
    stale;
  ensure_bound w node

let node_crashed w node =
  (* Listeners on the node evaporate. *)
  let doomed =
    Hashtbl.fold
      (fun (n, p) l acc -> if n = node then (n, p, l) :: acc else acc)
      w.listeners []
  in
  List.iter (fun (_, _, l) -> close_listener l) doomed;
  (* Peers of connections touching the node observe EOF. *)
  Hashtbl.iter
    (fun (n, _) c -> if n <> node && c.remote = node then mark_eof c)
    w.conns;
  ()
