(** The chaos workload: an append-only ledger server plus a client that
    remembers which writes were acknowledged.

    Each request appends one globally unique id; the server acknowledges
    with [OK <id>] only after the write is admitted from the PAXOS
    sequence, so an acknowledgement implies the id was decided by a
    quorum.  At the end of a run the checker demands that every
    acknowledged id is present in every live replica's state — the
    "no client-acked request lost" invariant.  Retried attempts use fresh
    ids, which keeps the check sound under at-least-once delivery: an
    unacked id may or may not land in the ledger, an acked one must. *)

module Time = Crane_sim.Time
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Target = Crane_workload.Target

let server : Api.server =
  {
    Api.name = "ledger";
    install = (fun fs -> Crane_fs.Memfs.write fs ~path:"install/ledger.conf" "port=80");
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        (* The ledger is one comma-joined rendering that grows in place,
           plus the [IDS ...] reply for the current version, rendered on
           the first GET after a change and shared by every GET until the
           next one: a read costs O(1), not a rebuild of the ledger. *)
        let ids = Buffer.create 4096 in
        let count = ref 0 in
        let reply = ref None in
        let stopped = ref false in
        (* Reader-writer lock, not a mutex: GETs only read the ledger, and
           a mutex would serialize (and order) concurrent GET commands
           that the delivery layer is entitled to run in parallel. *)
        let mu = R.rwlock ~name:"ledger.ids" () in
        let ids_reply () =
          match !reply with
          | Some r -> r
          | None ->
            let n = Buffer.length ids in
            let b = Bytes.create (n + 5) in
            Bytes.blit_string "IDS " 0 b 0 4;
            Buffer.blit ids 0 b 4 n;
            Bytes.set b (n + 4) '\n';
            let r = Bytes.unsafe_to_string b in
            reply := Some r;
            r
        in
        R.spawn ~name:"ledger-listener" (fun () ->
            let l = R.listen ~port:80 in
            while not !stopped do
              R.poll l;
              let c = R.accept l in
              R.spawn ~name:"ledger-worker" (fun () ->
                  let rec serve buf =
                    match String.index_opt buf '\n' with
                    | Some i ->
                      let line = String.trim (String.sub buf 0 i) in
                      let rest = String.sub buf (i + 1) (String.length buf - i - 1) in
                      (match String.split_on_char ' ' line with
                      | [ "PUT"; id ] ->
                        R.wrlock mu;
                        if !count > 0 then Buffer.add_char ids ',';
                        Buffer.add_string ids id;
                        incr count;
                        reply := None;
                        R.rwunlock mu;
                        R.send c (Printf.sprintf "OK %s\n" id)
                      | [ "GET" ] ->
                        (* Consensus-path read: the all-consensus baseline
                           and the fast path's REJECT/fallback route. *)
                        R.rdlock mu;
                        let r = ids_reply () in
                        R.rwunlock mu;
                        R.send c r
                      | _ -> R.send c "ERR\n");
                      serve rest
                    | None ->
                      let chunk = R.recv c ~max:4096 in
                      if chunk = "" then R.close c
                      else serve (if buf = "" then chunk else buf ^ chunk)
                  in
                  serve "")
            done);
        Api.handle ~name:"ledger"
          ~state_of:(fun () -> Buffer.contents ids)
          ~load_state:(fun s ->
            Buffer.clear ids;
            Buffer.add_string ids s;
            count :=
              if s = "" then 0
              else String.fold_left (fun n ch -> if ch = ',' then n + 1 else n) 1 s;
            reply := None)
          ~mem_bytes:(fun () -> 1_000_000 + (16 * !count))
          ~stop:(fun () -> stopped := true)
          ~read:(fun line ->
            if String.trim line = "GET" then Some (ids_reply ()) else None)
          ~footprint:(fun line ->
            (* The whole ledger is one resource: PUTs all conflict (the
               honest footprint of an append-only list), GETs only read
               it and may run alongside each other. *)
            match String.split_on_char ' ' (String.trim line) with
            | [ "PUT"; _ ] ->
              Some { Api.fp_reads = []; fp_writes = [ "ledger" ] }
            | [ "GET" ] -> Some { Api.fp_reads = [ "ledger" ]; fp_writes = [] }
            | _ -> None)
          ());
  }

type client = {
  mutable attempts : int;  (** also the id source: every attempt is unique *)
  acked : (string, unit) Hashtbl.t;
}

let client () = { attempts = 0; acked = Hashtbl.create 512 }

let acked_ids t =
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) t.acked [])

let acked_count t = Hashtbl.length t.acked

(* ------------------------------------------------------------------ *)
(* Wire helpers: every ledger client (the loadgens, the chaos observers,
   Crane-MC) talks to a replica through [call] (a line protocol) or
   [read_call] (the proxy's read envelope).  Each caller passes its own
   recv [timeout]: a stalled reply costs that much virtual time. *)

module Proxy = Crane_core.Proxy

(* Send [msg] on [conn], then read to a newline: the reply line (or the
   partial tail the peer closed on), [None] if nothing arrived.  Closes
   [conn]. *)
let call ~timeout ~max conn msg =
  let rec read buf =
    if String.contains buf '\n' then Some buf
    else
      let chunk = Sock.recv ~timeout conn ~max in
      if chunk = "" then if buf = "" then None else Some buf
      else read (if buf = "" then chunk else buf ^ chunk)
  in
  let resp =
    try
      Sock.send conn msg;
      read ""
    with Sock.Connection_closed -> None
  in
  (try Sock.close conn with Sock.Connection_closed -> ());
  resp

(* A GET through the proxy's read envelope on [conn].  None = transport
   failure.  Closes [conn]. *)
let read_call ~timeout conn =
  let rec read buf =
    match Proxy.parse_read_reply buf with
    | Some (r, _) -> Some r
    | None ->
      let chunk = Sock.recv ~timeout conn ~max:65536 in
      if chunk = "" then None
      else read (if buf = "" then chunk else buf ^ chunk)
  in
  let reply =
    try
      Sock.send conn (Proxy.encode_read_request "GET\n");
      read ""
    with Sock.Connection_closed -> None
  in
  (try Sock.close conn with Sock.Connection_closed -> ());
  reply

(* PUT [id] on [conn]: the reply line if it acknowledges [id]. *)
let put ~timeout conn id =
  match call ~timeout ~max:4096 conn (Printf.sprintf "PUT %s\n" id) with
  | Some r when String.starts_with ~prefix:("OK " ^ id) r -> Some r
  | Some _ | None -> None

(* One request: PUT a fresh id, succeed only on a matching OK.  A short
   recv timeout (vs. the benchmarks' 120 s) makes a stalled primary a
   transient failure the loadgen can retry, not a wedged client. *)
let request t target ~from =
  t.attempts <- t.attempts + 1;
  let id = Printf.sprintf "w%d" t.attempts in
  match
    Option.bind (Target.connect target ~from) (fun c -> put ~timeout:(Time.sec 5) c id)
  with
  | Some _ as resp ->
    Hashtbl.replace t.acked id ();
    resp
  | None -> None

(* Parse a replica's ledger state back into an id set. *)
let ids_of_state s =
  if s = "" then [] else String.split_on_char ',' s

(* ------------------------------------------------------------------ *)
(* Read clients. *)

(* Consensus-path GET: the all-consensus read baseline, and the fallback
   when the fast path answers REJECT.  Returns the [IDS ...] line. *)
let consensus_get target ~from =
  match
    Option.bind (Target.connect target ~from)
      (fun c -> call ~timeout:(Time.sec 5) ~max:65536 c "GET\n")
  with
  | Some r when String.starts_with ~prefix:"IDS " r -> Some r
  | Some _ | None -> None

(* One fast-path read against [rtarget] (a read-port target): GET through
   the proxy's read envelope.  None = transport failure. *)
let fast_get rtarget ~from =
  Option.bind (Target.connect rtarget ~from) (read_call ~timeout:(Time.sec 5))

(* One fast read against one specific replica, with no failover: an
   observer that wants to know exactly who answered. *)
let fast_get_node world ~timeout ~read_port ~node ~from =
  match Sock.connect world ~from ~node ~port:read_port with
  | exception Sock.Connection_refused _ -> None
  | conn -> read_call ~timeout conn

(* Fast path with consensus fallback: the client-visible read operation.
   [Served] answers return their value; a rejected or transport-failed
   fast read retries on the consensus funnel. *)
let read_request ~rtarget ~target ~from =
  match fast_get rtarget ~from with
  | Some (Proxy.Served r) -> Some r.Proxy.value
  | Some Proxy.Rejected | Some Proxy.Write_required | None ->
    consensus_get target ~from

(* Parse the ids out of an [IDS ...] reply line. *)
let ids_of_reply r =
  match String.index_opt r '\n' with
  | Some i when String.length r >= 4 && String.sub r 0 4 = "IDS " ->
    ids_of_state (String.trim (String.sub r 4 (i - 4)))
  | Some _ | None -> []
