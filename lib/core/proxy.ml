(** The proxy component (paper §2.1): a CRANE instance's gateway.

    On the primary it accepts client connections, treats each incoming
    socket call (connect / send / close) as an input request and submits
    it to the PAXOS component; decided calls are forwarded — on every
    replica — to the local server through the PAXOS sequence, in decision
    order.  Server responses are relayed to clients on the primary and
    dropped on backups.  Backup proxies do not serve clients: a client
    reaching one sees its connection closed and retries elsewhere.

    The proxy also owns the primary side of time bubbling (Figure 13
    steps 2-3): bubble requests from the local DMT are turned into
    consensus proposals when this node believes itself primary, and are
    dropped otherwise. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Sock = Crane_socket.Sock
module Paxos = Crane_paxos.Paxos
module Trace = Crane_trace.Trace

type t = {
  eng : Engine.t;
  node : string;
  world : Sock.world;
  port : int;
  paxos : Paxos.t;
  vhost : Vhost.t;
  group : Engine.group;
  client_conns : (int, Sock.conn) Hashtbl.t;
  orphans_closed : (int, unit) Hashtbl.t;
  mutable skip_upto : int; (* decisions already captured by a restored checkpoint *)
  (* Batching (group commit), self-clocked: events that arrive while a
     round is in flight accumulate here and are proposed as one round
     when a commit empties the pipeline.  Arrival order is preserved, so
     the decision sequence is exactly the unbatched one. *)
  batch_max : int;
  buf : (string * Event.t * Time.t) Queue.t;
      (* (encoded, event, enqueue instant) awaiting flush, arrival order:
         the enqueue instant is the batch-wait origin of the request's
         causal span *)
  (* Read fast path: the booted server's pure-read hook ([Api.handle.read]),
     installed by the instance after boot.  None = this replica serves no
     fast-path reads (every request stays on the consensus funnel). *)
  mutable read_handler : (string -> string option) option;
  mutable lease_reads : int;
  mutable backup_reads : int;
  mutable lease_rejects : int;
  mutable stopped : bool;
}

type stats = {
  lease_reads : int;  (** fast-path reads served under a valid leader lease *)
  backup_reads : int;  (** bounded-stale reads served by this (backup) proxy *)
  lease_rejects : int;  (** fast-path reads refused (no lease / fenced) *)
}

(* ------------------------------------------------------------------ *)
(* Read/write split: the typed client-facing read surface.

   A client request is classified [Read] when the server's fast-path hook
   can answer it from current state, [Write] otherwise — so classification
   is the server's own judgement ([R.cell_get]-style pure reads classify
   automatically), not a protocol annotation the client could get wrong.
   Reads are routed around [Paxos.submit] entirely; writes keep the
   batched consensus path byte-identical. *)

type request_class = Read of string | Write

type read_result = {
  value : string;
  mode : [ `Lease | `Backup of int ];
      (** [`Lease]: linearizable, served by the lease-holding primary.
          [`Backup stale]: [stale] = entries the serving replica knew to be
          committed but had not yet reflected at answer time (not a bound
          on commits it never heard of). *)
  epoch : int;  (** configuration epoch the read was served under *)
  watermark : int;
      (** consensus index the answer is guaranteed to reflect: every
          committed entry [<= watermark] is included in [value]'s state *)
}

type read_reply =
  | Served of read_result
  | Write_required  (** the server classified the payload as a write *)
  | Rejected  (** no valid lease / fenced replica: retry on consensus path *)

(* Wire framing for the read port.  Requests: ["READ <len>\n<len bytes>"].
   Replies: ["LEASE <epoch> <wm> <len>\n<bytes>"],
   ["STALE <epoch> <wm> <stale> <len>\n<bytes>"], ["REJECT\n"],
   ["WRITE\n"].  Length-prefixed both ways so payloads may hold newlines
   (e.g. full HTTP requests). *)

let encode_read_request payload =
  Printf.sprintf "READ %d\n%s" (String.length payload) payload

(* A served value goes out as its header [^] the value: one copy of a
   value that may be the whole ledger, not a [Printf] buffer growing
   through several. *)
let encode_read_reply = function
  | Rejected -> "REJECT\n"
  | Write_required -> "WRITE\n"
  | Served { value; mode = `Lease; epoch; watermark } ->
    Printf.sprintf "LEASE %d %d %d\n" epoch watermark (String.length value)
    ^ value
  | Served { value; mode = `Backup stale; epoch; watermark } ->
    Printf.sprintf "STALE %d %d %d %d\n" epoch watermark stale
      (String.length value)
    ^ value

(* Parse one reply from the head of [buf]; [None] = incomplete, recv more.
   Malformed headers parse as [Rejected] so a confused client falls back
   to the consensus path rather than wedging.  The header, the value and
   the remainder are each sliced from [buf] once. *)
let parse_read_reply buf =
  match String.index_opt buf '\n' with
  | None -> None
  | Some i -> (
    let n = String.length buf in
    let after k = String.sub buf k (n - k) in
    let body len k =
      if n - (i + 1) < len then None
      else
        Some (k (String.sub buf (i + 1) len), after (i + 1 + len))
    in
    match String.split_on_char ' ' (String.sub buf 0 i) with
    | [ "REJECT" ] -> Some (Rejected, after (i + 1))
    | [ "WRITE" ] -> Some (Write_required, after (i + 1))
    | [ "LEASE"; e; wm; len ] -> (
      match
        (int_of_string_opt e, int_of_string_opt wm, int_of_string_opt len)
      with
      | Some epoch, Some watermark, Some len when len >= 0 ->
        body len (fun value ->
            Served { value; mode = `Lease; epoch; watermark })
      | _ -> Some (Rejected, after (i + 1)))
    | [ "STALE"; e; wm; st; len ] -> (
      match
        ( int_of_string_opt e, int_of_string_opt wm, int_of_string_opt st,
          int_of_string_opt len )
      with
      | Some epoch, Some watermark, Some stale, Some len when len >= 0 ->
        body len (fun value ->
            Served { value; mode = `Backup stale; epoch; watermark })
      | _ -> Some (Rejected, after (i + 1)))
    | _ -> Some (Rejected, after (i + 1)))

(* The birth certificate of a request span: one instant carrying the
   assigned consensus index (the trace id), the client connection, the
   call kind and how long the event waited in the proxy batch buffer.
   Emitted at proposal time, so same-seed runs order it identically. *)
let req_proposed t ~index ~queued ev =
  if Engine.tracing t.eng then begin
    let call, conn =
      match ev with
      | Event.Time_bubble _ -> (Trace.Bubble, -1)
      | Event.Connect { conn; _ } -> (Trace.Connect, conn)
      | Event.Send { conn; _ } -> (Trace.Send, conn)
      | Event.Close { conn } -> (Trace.Close, conn)
    in
    Engine.emit t.eng ~node:t.node
      (Trace.Proposed { index; conn; call; queued_ns = queued; view = Paxos.view t.paxos });
    if conn >= 0 then
      Engine.emit t.eng ~node:t.node ~ph:(Trace.Async_begin index) (Trace.Lifecycle { index })
  end

(* Propose everything buffered as one batch: one Accept broadcast and one
   group-commit fsync for the lot.  If primaryship was lost since the
   events were buffered the batch is shed — the same client-visible
   outcome as a submit refusing mid-stream (clients are shed by on_demote
   and retry against the new primary). *)
let flush t =
  if not (Queue.is_empty t.buf) then begin
    let entries = List.of_seq (Queue.to_seq t.buf) in
    Queue.clear t.buf;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node (Trace.Batch_flush { events = List.length entries });
    match
      Paxos.submit t.paxos (List.map (fun (enc, _, _) -> enc) entries)
    with
    | None -> ()
    | Some (lo, _) ->
      let now = Engine.now t.eng in
      List.iteri
        (fun i (_, ev, enq) -> req_proposed t ~index:(lo + i) ~queued:(now - enq) ev)
        entries
  end

(* The self-clock: the commit (or configuration activation) that
   empties the pipeline sends whatever arrived during the round. *)
let flush_if_idle t = if Paxos.pending t.paxos = 0 then flush t

(* Every event takes the buffered path.  It leaves at once when nothing
   is in flight (there is no round to ride along with), when the buffer
   is full, or when it is a bubble: bubbles are only requested while the
   sequence is empty, and holding one back would stall the gate it is
   meant to unblock.  Flushing the buffer keeps arrival order intact.
   With [batch_max = 1] each event is its own one-value round. *)
let submit t ev =
  if not (Paxos.is_primary t.paxos) then false
  else begin
    Queue.add (Event.encode ev, ev, Engine.now t.eng) t.buf;
    if Event.is_bubble ev || Queue.length t.buf >= t.batch_max then flush t
    else flush_if_idle t;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node
        (match ev with
        | Event.Time_bubble { nclock } -> Trace.Bubble_proposed { nclock }
        | Event.Connect { conn; port } -> Trace.Connect_proposed { conn; port }
        | Event.Send { conn; payload } ->
          Trace.Send_proposed { conn; bytes = String.length payload }
        | Event.Close { conn } -> Trace.Close_proposed { conn });
    true
  end

(* Per-client pump: every chunk of bytes the client sends is one Send
   request; EOF becomes Close.  The proxy's side is closed at EOF too: the
   client's FIN is already in, so this sends nothing, and the server's
   later close finds no attached client to shed. *)
let client_rx_loop t conn =
  let id = Sock.id conn in
  let rec loop () =
    let data = Sock.recv conn ~max:65536 in
    if data = "" then begin
      Hashtbl.remove t.client_conns id;
      Sock.close conn;
      ignore (submit t (Event.Close { conn = id }))
    end
    else if submit t (Event.Send { conn = id; payload = data }) then loop ()
    else begin
      (* Lost primaryship mid-stream: shed the client so it can retry. *)
      Hashtbl.remove t.client_conns id;
      Sock.close conn
    end
  in
  loop ()

let acceptor_loop t listener =
  while not t.stopped do
    let conn = Sock.accept listener in
    if Paxos.is_primary t.paxos then begin
      let id = Sock.id conn in
      Hashtbl.replace t.client_conns id conn;
      if submit t (Event.Connect { conn = id; port = t.port }) then
        Engine.spawn t.eng ~group:t.group
          ~name:(Printf.sprintf "proxy-rx-%d" id)
          (fun () -> client_rx_loop t conn)
      else begin
        Hashtbl.remove t.client_conns id;
        Sock.close conn
      end
    end
    else Sock.close conn (* backups do not serve clients *)
  done

(* ------------------------------------------------------------------ *)
(* Read fast path: serving side. *)

let classify t payload =
  match t.read_handler with
  | None -> Write
  | Some f -> ( match f payload with Some v -> Read v | None -> Write)

(* Answer one read-port request.  The hook runs synchronously in this
   thread with no engine yield, so the value it computes and the
   watermark stamped next to it describe the same instant of server
   state. *)
let serve_read t payload =
  let epoch = Paxos.epoch t.paxos in
  let wm () = Vhost.read_watermark t.vhost ~applied:(Paxos.applied t.paxos) in
  if Paxos.fenced t.paxos then begin
    t.lease_rejects <- t.lease_rejects + 1;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node (Trace.Read_reject { why = "fenced" });
    "REJECT\n"
  end
  else if Paxos.is_primary t.paxos then
    if Paxos.lease_valid t.paxos then (
      match classify t payload with
      | Write -> "WRITE\n"
      | Read value ->
        let wm = wm () in
        t.lease_reads <- t.lease_reads + 1;
        if Engine.tracing t.eng then
          Engine.emit t.eng ~node:t.node (Trace.Read_lease { wm; epoch });
        encode_read_reply (Served { value; mode = `Lease; epoch; watermark = wm }))
    else begin
      (* Primary without a live lease (just elected, reconfig pending,
         quorum of heartbeat acks not yet in): refusing is the safe
         answer — serving locally could miss a concurrent new primary. *)
      t.lease_rejects <- t.lease_rejects + 1;
      if Engine.tracing t.eng then
        Engine.emit t.eng ~node:t.node (Trace.Read_reject { why = "no_lease" });
      "REJECT\n"
    end
  else (
    match classify t payload with
    | Write -> "WRITE\n"
    | Read value ->
      let wm = wm () in
      let stale = max 0 (Paxos.committed t.paxos - wm) in
      t.backup_reads <- t.backup_reads + 1;
      if Engine.tracing t.eng then
        Engine.emit t.eng ~node:t.node (Trace.Read_backup { wm; stale; epoch });
      encode_read_reply
        (Served { value; mode = `Backup stale; epoch; watermark = wm }))

(* Per-connection pump on the read port: length-framed requests, one
   reply each, nothing ever touches consensus. *)
let read_rx_loop t conn =
  let rec loop buf =
    match String.index_opt buf '\n' with
    | Some i -> (
      let header = String.sub buf 0 i in
      let rest = String.sub buf (i + 1) (String.length buf - i - 1) in
      match String.split_on_char ' ' header with
      | [ "READ"; l ] -> (
        match int_of_string_opt l with
        | Some len when len >= 0 ->
          if String.length rest >= len then begin
            let payload = String.sub rest 0 len in
            let remainder = String.sub rest len (String.length rest - len) in
            Sock.send conn (serve_read t payload);
            loop remainder
          end
          else recv_more buf
        | Some _ | None -> Sock.close conn)
      | _ -> Sock.close conn)
    | None -> recv_more buf
  and recv_more buf =
    let chunk = Sock.recv conn ~max:65536 in
    if chunk = "" then Sock.close conn
    else loop (if buf = "" then chunk else buf ^ chunk)
  in
  try loop "" with Sock.Connection_closed -> ()

(* Unlike the consensus acceptor, every replica serves its read port:
   backups answering bounded-stale reads is the point. *)
let read_acceptor_loop t listener =
  while not t.stopped do
    let conn = Sock.accept listener in
    Engine.spawn t.eng ~group:t.group
      ~name:(Printf.sprintf "proxy-read-%d" (Sock.id conn))
      (fun () -> read_rx_loop t conn)
  done

(* After a failover the new primary's server still holds connections whose
   clients were attached to the dead primary.  Close them through
   consensus so all replicas' servers clean up identically. *)
let close_orphans t =
  if Paxos.is_primary t.paxos then
    Hashtbl.fold
      (fun vid (c : Vhost.vconn) acc ->
        if
          (not c.Vhost.vclosed) && (not c.Vhost.veof)
          && (not (Hashtbl.mem t.client_conns vid))
          && not (Hashtbl.mem t.orphans_closed vid)
        then vid :: acc
        else acc)
      t.vhost.Vhost.conns []
    (* Proposal order is decision order: take it from the ids, not from
       bucket order, which moves with the table's size. *)
    |> List.sort compare
    |> List.iter (fun vid ->
           Hashtbl.add t.orphans_closed vid ();
           ignore (submit t (Event.Close { conn = vid })))

let rec orphan_monitor t =
  Engine.after t.eng ~group:t.group (Time.ms 100) (fun () ->
      if not t.stopped then begin
        close_orphans t;
        orphan_monitor t
      end)

let create ~eng ~node ~world ~port ~paxos ~vhost ~group ~skip_upto
    ~batch_max ?read_port
    ?(on_config = fun ~epoch:_ _ -> ()) ?(on_fence = fun ~epoch:_ -> ()) () =
  let t =
    {
      eng;
      node;
      world;
      port;
      paxos;
      vhost;
      group;
      client_conns = Hashtbl.create 64;
      orphans_closed = Hashtbl.create 64;
      skip_upto;
      batch_max;
      buf = Queue.create ();
      read_handler = None;
      lease_reads = 0;
      backup_reads = 0;
      lease_rejects = 0;
      stopped = false;
    }
  in
  Vhost.set_handlers vhost
    {
      (* Server -> client path. *)
      Vhost.respond =
        (fun ~conn payload ->
          if Paxos.is_primary t.paxos then
            match Hashtbl.find_opt t.client_conns conn with
            | Some c -> ( try Sock.send c payload with Sock.Connection_closed -> ())
            | None -> ());
      on_server_close =
        (fun conn ->
          if Paxos.is_primary t.paxos then
            match Hashtbl.find_opt t.client_conns conn with
            | Some c ->
              Hashtbl.remove t.client_conns conn;
              Sock.close c
            | None -> ());
      (* DMT -> consensus path for time bubbles (Figure 13).  Backpressure:
         the gate re-requests every wtimeout while the sequence stays empty
         and a thread can spend the clocks, so if commits stall (lossy
         network, lost quorum contact) an unthrottled loop would append
         ~10k junk bubbles per virtual second that every replica must later
         commit and drain.  Skip the request when the pipeline is already
         deep; bubbling resumes as soon as the backlog commits.
         Buffered-but-unflushed events count toward the depth. *)
      request_bubble =
        (fun nclock ->
          if
            Paxos.is_primary t.paxos
            && Paxos.pending t.paxos + Queue.length t.buf < 32
          then ignore (submit t (Event.Time_bubble { nclock })));
    };
  Paxos.set_handlers paxos
    {
      (* Consensus -> server path, in decision order (batches arrive
         unpacked, one callback per entry). *)
      Paxos.on_commit =
        (fun ~index value ->
          if index > t.skip_upto then
            Vhost.deliver vhost ~index ~view:(Paxos.view t.paxos)
              (Event.decode value);
          flush_if_idle t);
      (* Deposed or abdicated: shed every attached client immediately so
         they see EOF and retry against the new primary, instead of
         waiting out a recv timeout on a node that can no longer commit
         their requests.  Buffered events are shed with them — they could
         no longer be proposed anyway. *)
      on_demote =
        (fun () ->
          Queue.clear t.buf;
          let shed = Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.client_conns [] in
          List.iter
            (fun (id, c) ->
              Hashtbl.remove t.client_conns id;
              Sock.close c)
            (List.sort (fun (a, _) (b, _) -> compare a b) shed));
      (* Membership changed under us: the hosting layer re-resolves (the
         cluster records the new config; client targets re-read it per
         retry).  A config entry never reaches [on_commit], so when it was
         the last one in flight its activation is what empties the
         pipeline. *)
      on_config =
        (fun ~epoch members ->
          on_config ~epoch members;
          flush_if_idle t);
      (* Reconfigured out: on_demote already shed the clients (fencing
         demotes first); tell the hosting layer so it retires this
         instance. *)
      on_fence = (fun ~epoch -> on_fence ~epoch);
    };
  (* Client -> consensus path. *)
  let listener = Sock.listen world ~node ~port in
  Engine.on_kill eng group (fun () -> Sock.close_listener listener);
  Engine.spawn eng ~group ~name:(node ^ "-proxy-acceptor") (fun () ->
      acceptor_loop t listener);
  (match read_port with
  | None -> ()
  | Some rport ->
    let rlistener = Sock.listen world ~node ~port:rport in
    Engine.on_kill eng group (fun () -> Sock.close_listener rlistener);
    Engine.spawn eng ~group ~name:(node ^ "-proxy-read-acceptor") (fun () ->
        read_acceptor_loop t rlistener));
  orphan_monitor t;
  t

let set_read_handler t f = t.read_handler <- Some f

let stop t =
  t.stopped <- true;
  Queue.clear t.buf

let skip_upto t = t.skip_upto

(* A snapshot installed mid-life (catch-up fast-forward) extends the
   range of decisions already embodied by the restored server state:
   never deliver them again. *)
let set_skip_upto t index = if index > t.skip_upto then t.skip_upto <- index

let stats (t : t) : stats =
  {
    lease_reads = t.lease_reads;
    backup_reads = t.backup_reads;
    lease_rejects = t.lease_rejects;
  }
