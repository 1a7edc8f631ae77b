module Time = Crane_sim.Time
module Fabric = Crane_net.Fabric
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

exception Connection_refused of Fabric.node * int
exception Connection_closed

let transport_port = 0

(* Connection ids and ports are small ints: hash them as themselves. *)
module Ids = Hashtbl.Make (struct
  include Int

  let hash c = c land max_int
end)

type conn = {
  cid : int;
  w : world;
  h : host;
  peer : Fabric.endpoint; (* the remote node's transport *)
  rx : Bytestream.t;
  mutable eof : bool; (* peer closed or crashed *)
  mutable closed : bool; (* this side closed *)
  rx_waiters : (unit -> bool) Queue.t;
}

and listener = {
  lw : world;
  lh : host;
  lport : int;
  backlog : conn Queue.t;
  accept_waiters : (unit -> bool) Queue.t;
  mutable lclosed : bool;
}

(* One node's transport: its open connections by id (both ends of a
   connection share the id, and each end lives on its own node) and its
   listeners by port.  The fabric handler of the node's transport port
   holds this record, so a delivery finds its connection by the id
   alone. *)
and host = {
  hname : Fabric.node;
  hep : Fabric.endpoint;
  hconns : conn Ids.t;
  hlisteners : listener Ids.t;
}

and world = {
  fabric : Fabric.t;
  eng : Engine.t;
  mutable next_cid : int;
  hosts : (Fabric.node, host) Hashtbl.t;
  pending_connects : (bool -> bool) Ids.t;
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

let new_conn w h ~cid ~peer =
  let c =
    {
      cid;
      w;
      h;
      peer;
      rx = Bytestream.create ();
      eof = false;
      closed = false;
      rx_waiters = Queue.create ();
    }
  in
  Ids.replace h.hconns cid c;
  c

let handle w h ~src msg =
  let node = h.hname in
  let find cid = Ids.find_opt h.hconns cid in
  match msg with
  | Syn { cid; dst_port } -> (
    match Ids.find_opt h.hlisteners dst_port with
    | Some l when not l.lclosed ->
      let c = new_conn w h ~cid ~peer:src in
      rx_event w ~node Trace.Syn ~cid ~bytes:0;
      Queue.add c l.backlog;
      wake_one l.accept_waiters;
      Fabric.send w.fabric ~src:h.hep ~dst:src (Syn_ack { cid })
    | Some _ | None ->
      Fabric.send w.fabric ~src:h.hep ~dst:src (Rst { cid }))
  | Syn_ack { cid } -> (
    match Ids.find_opt w.pending_connects cid with
    | Some wake ->
      Ids.remove w.pending_connects cid;
      ignore (wake true)
    | None -> ())
  | Rst { cid } -> (
    match Ids.find_opt w.pending_connects cid with
    | Some wake ->
      Ids.remove w.pending_connects cid;
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

(* The node's transport, bound to the fabric on first use. *)
let host w node =
  match Hashtbl.find_opt w.hosts node with
  | Some h -> h
  | None ->
    let h =
      {
        hname = node;
        hep = ep node;
        hconns = Ids.create 64;
        hlisteners = Ids.create 4;
      }
    in
    Hashtbl.add w.hosts node h;
    Fabric.bind w.fabric h.hep (fun ~src msg -> handle w h ~src msg);
    h

let world fabric =
  {
    fabric;
    eng = Fabric.engine fabric;
    next_cid = 1;
    hosts = Hashtbl.create 16;
    pending_connects = Ids.create 16;
  }

let listen w ~node ~port =
  let h = host w node in
  if Ids.mem h.hlisteners port then
    invalid_arg (Printf.sprintf "Sock.listen: %s:%d already bound" node port);
  let l =
    {
      lw = w;
      lh = h;
      lport = port;
      backlog = Queue.create ();
      accept_waiters = Queue.create ();
      lclosed = false;
    }
  in
  Ids.replace h.hlisteners port l;
  l

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    Ids.remove l.lh.hlisteners l.lport;
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
  let h = host w from in
  let cid = w.next_cid in
  w.next_cid <- cid + 1;
  let c = new_conn w h ~cid ~peer:(ep node) in
  Fabric.send w.fabric ~src:h.hep ~dst:c.peer (Syn { cid; dst_port = port });
  (* Connect timeout: a dead or partitioned server refuses after 1s. *)
  let ok =
    match
      Engine.suspend_timeout w.eng (Time.sec 1) (fun wake ->
          Ids.replace w.pending_connects cid wake)
    with
    | Some ok -> ok
    | None ->
      Ids.remove w.pending_connects cid;
      false
  in
  if not ok then begin
    Ids.remove h.hconns cid;
    raise (Connection_refused (node, port))
  end;
  c

let send (c : conn) payload =
  if c.closed then raise Connection_closed;
  if (not c.eof) && String.length payload > 0 then
    Fabric.send c.w.fabric ~src:c.h.hep ~dst:c.peer
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
    Ids.remove c.h.hconns c.cid;
    if not c.eof then
      Fabric.send c.w.fabric ~src:c.h.hep ~dst:c.peer
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
  let h = host w node in
  let stale = Ids.fold (fun _ c acc -> c :: acc) h.hconns [] in
  Ids.reset h.hconns;
  List.iter mark_eof stale

let node_crashed w node =
  (* Listeners on the node evaporate. *)
  (match Hashtbl.find_opt w.hosts node with
  | Some h ->
    List.iter close_listener (Ids.fold (fun _ l acc -> l :: acc) h.hlisteners [])
  | None -> ());
  (* Peers of connections touching the node observe EOF, in connection
     order. *)
  let peers =
    Hashtbl.fold
      (fun _ h acc ->
        if h.hname = node then acc
        else Ids.fold (fun _ c acc -> if c.peer.node = node then c :: acc else acc) h.hconns acc)
      w.hosts []
  in
  List.iter mark_eof (List.sort (fun a b -> Int.compare a.cid b.cid) peers)
