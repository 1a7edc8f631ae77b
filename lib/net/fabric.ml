module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Sched = Crane_sim.Sched
module Trace = Crane_trace.Trace

type node = string
type endpoint = { node : node; port : int }

type message = ..

(* A send parked in the controlled fabric, waiting for the scheduler to
   deliver it.  Ids are assigned in send order, so the FIFO head of a
   link is its pending message with the smallest id. *)
type ctl_msg = {
  cm_id : int;
  cm_src : endpoint;
  cm_dst : endpoint;
  cm_msg : message;
  cm_ready : Time.t;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  (* Jitter/loss draws come from a per-link stream derived from
     [link_seed], not from the shared [rng]: with one shared stream, a
     change in the {e number} of messages on one link (e.g. batching
     collapsing N Accepts into one) would shift every later draw and
     perturb latencies on unrelated links, breaking fixed-seed
     comparisons across configurations.  The per-link seed depends only
     on (seed, src, dst), never on creation order. *)
  link_seed : int;
  link_rngs : (node * node, Rng.t) Hashtbl.t;
  mutable base : Time.t;
  mutable jitter : Time.t;
  mutable loss : float;
  up : (node, bool) Hashtbl.t;
  handlers : (node * int, src:endpoint -> message -> unit) Hashtbl.t;
  (* FIFO guarantee: never schedule a delivery on a link earlier than the
     previous one. *)
  last_delivery : (node * node, Time.t) Hashtbl.t;
  (* A partition blocks [src] -> [dst]; symmetric ones block the reverse
     direction too. *)
  mutable partitions : (node list * node list * bool) list;
  mutable delivered : int;
  mutable dropped : int;
  (* Controlled-mode state (Crane-MC); only touched when the engine
     carries a scheduler. *)
  mutable ctl_next_id : int;
  ctl_pending : (int, ctl_msg) Hashtbl.t;
}

(* Per-byte serialization and wire cost of a bulk transfer: 8 ns/byte is
   a 1 Gbps wire. *)
let byte_cost = 8

let create eng rng =
  {
    eng;
    link_seed = Int64.to_int (Rng.next rng);
    rng;
    link_rngs = Hashtbl.create 64;
    base = Time.us 40;
    jitter = Time.us 20;
    loss = 0.0;
    up = Hashtbl.create 16;
    handlers = Hashtbl.create 64;
    last_delivery = Hashtbl.create 64;
    partitions = [];
    delivered = 0;
    dropped = 0;
    ctl_next_id = 0;
    ctl_pending = Hashtbl.create 64;
  }

let engine t = t.eng

let set_latency t ~base ~jitter =
  t.base <- base;
  t.jitter <- jitter

let set_loss t loss = t.loss <- loss
let node_up t n = Hashtbl.replace t.up n true
let node_down t n = Hashtbl.replace t.up n false
let is_up t n = match Hashtbl.find_opt t.up n with Some b -> b | None -> false

let partition t a b = t.partitions <- (a, b, true) :: t.partitions
let partition_oneway t ~from ~to_ = t.partitions <- (from, to_, false) :: t.partitions
let heal t = t.partitions <- []
let partitions t = List.length t.partitions

let partitioned t a b =
  let blocks (l, r, sym) =
    (List.mem a l && List.mem b r) || (sym && List.mem a r && List.mem b l)
  in
  List.exists blocks t.partitions

let bind t ep handler =
  node_up t ep.node;
  Hashtbl.replace t.handlers (ep.node, ep.port) handler

let unbind t ep = Hashtbl.remove t.handlers (ep.node, ep.port)

let link_rng t link =
  match Hashtbl.find_opt t.link_rngs link with
  | Some r -> r
  | None ->
    let src, dst = link in
    let r = Rng.create (Hashtbl.hash (t.link_seed, src, dst)) in
    Hashtbl.replace t.link_rngs link r;
    r

let sample_delay t rng =
  let j = if t.jitter > 0 then Rng.int rng t.jitter else 0 in
  t.base + j

(* Message loss is a latency event, not just a counter: a dropped Accept
   or ack stalls its index until the round retry, so chaos-run critical
   paths want drops on the replica's timeline. *)
let note_drop t ~src ~dst ~reason =
  t.dropped <- t.dropped + 1;
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:dst.node (Trace.Drop { src = src.node; reason })

(* Application-level rejection of an already-delivered message — e.g.
   paxos fencing a stale config epoch.  Counts and traces like a fabric
   drop so chaos reports and timelines show why the message died. *)
let reject t ~src ~dst ~reason = note_drop t ~src ~dst ~reason

(* ------------------------------------------------------------------ *)
(* Controlled mode (Crane-MC).

   With a scheduler installed on the engine, sends do not sample the
   per-link RNG streams at all: every message parks in [ctl_pending]
   behind a fixed base latency, and at each delivery instant the
   scheduler picks which eligible message fires next, then whether it is
   delivered or dropped.  Per-link FIFO is preserved structurally — only
   the oldest pending message of each link is ever eligible — so the
   enumerator explores exactly the cross-link delivery orders a real
   asynchronous network admits.  Everything downstream of the choices is
   deterministic, which is what makes a recorded choice sequence a
   replayable counterexample. *)

(* Stable identity of a pending message, parseable by the enumerator:
   "<id>|<src>><dst>:<port>". *)
let ctl_key m =
  Printf.sprintf "%d|%s>%s:%d" m.cm_id m.cm_src.node m.cm_dst.node
    m.cm_dst.port

(* Eligible set: per-link FIFO heads whose ready time has arrived.  A
   delay-bucketed head parks its whole link behind it (FIFO), which is
   how the enumerator slides a message past a timer deadline. *)
let ctl_eligible t =
  let now = Engine.now t.eng in
  let heads = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ m ->
      let link = (m.cm_src.node, m.cm_dst.node) in
      match Hashtbl.find_opt heads link with
      | Some m' when m'.cm_id < m.cm_id -> ()
      | _ -> Hashtbl.replace heads link m)
    t.ctl_pending;
  let elig =
    Hashtbl.fold
      (fun _ m acc -> if m.cm_ready <= now then m :: acc else acc)
      heads []
  in
  List.sort (fun a b -> compare a.cm_id b.cm_id) elig

let ctl_pump t sched =
  let rec loop () =
    match ctl_eligible t with
    | [] -> ()
    | elig ->
      sched.Sched.pre_deliver ();
      let arr = Array.of_list elig in
      let keys = Array.map ctl_key arr in
      let m = arr.(Sched.choose sched ~label:"net.deliver" ~keys) in
      Hashtbl.remove t.ctl_pending m.cm_id;
      let src = m.cm_src and dst = m.cm_dst in
      if
        (not (is_up t src.node && is_up t dst.node))
        || partitioned t src.node dst.node
      then note_drop t ~src ~dst ~reason:"partitioned"
      else begin
        let key = ctl_key m in
        let fate =
          Sched.choose sched ~label:"net.fate"
            ~keys:[| "deliver:" ^ key; "drop:" ^ key |]
        in
        if fate = 1 then note_drop t ~src ~dst ~reason:"mc_drop"
        else
          match Hashtbl.find_opt t.handlers (dst.node, dst.port) with
          | Some handler ->
            t.delivered <- t.delivered + 1;
            sched.Sched.on_deliver ~id:m.cm_id ~src:src.node ~dst:dst.node;
            handler ~src m.cm_msg
          | None -> note_drop t ~src ~dst ~reason:"unbound"
      end;
      (* Handlers only ever park new messages at [now + base > now], so
         the eligible set shrinks monotonically and the loop terminates.
         Draining every same-instant delivery here matches the normal
         mode, where simultaneous arrivals run back to back before any
         continuation they wake. *)
      loop ()
  in
  loop ()

let ctl_send ~bytes t sched ~src ~dst msg =
  if not (is_up t src.node) then note_drop t ~src ~dst ~reason:"src_down"
  else begin
    let id = t.ctl_next_id in
    t.ctl_next_id <- id + 1;
    sched.Sched.on_send ~id ~src:src.node ~dst:dst.node;
    let mult =
      let delays = sched.Sched.delays in
      if Array.length delays <= 1 then delays.(0)
      else
        let keys =
          Array.map
            (fun d ->
              Printf.sprintf "%d|%s>%s:%d|%dx" id src.node dst.node dst.port d)
            delays
        in
        delays.(Sched.choose sched ~label:"net.delay" ~keys)
    in
    let ready =
      Engine.now t.eng + (mult * sched.Sched.base) + (bytes * byte_cost)
    in
    Hashtbl.replace t.ctl_pending id
      { cm_id = id; cm_src = src; cm_dst = dst; cm_msg = msg; cm_ready = ready };
    Engine.at t.eng ready (fun () -> ctl_pump t sched)
  end

let send ?(bytes = 0) t ~src ~dst msg =
  if not (Hashtbl.mem t.up src.node) then node_up t src.node;
  match Engine.sched t.eng with
  | Some sched -> ctl_send ~bytes t sched ~src ~dst msg
  | None ->
  let link = (src.node, dst.node) in
  let rng = link_rng t link in
  if not (is_up t src.node) || Rng.chance rng t.loss then
    note_drop t ~src ~dst
      ~reason:(if is_up t src.node then "loss" else "src_down")
  else begin
    let arrival =
      let earliest =
        Engine.now t.eng + sample_delay t rng + (bytes * byte_cost)
      in
      match Hashtbl.find_opt t.last_delivery link with
      | Some prev when prev > earliest -> prev
      | _ -> earliest
    in
    Hashtbl.replace t.last_delivery link arrival;
    Engine.at t.eng arrival (fun () ->
        if is_up t src.node && is_up t dst.node
           && not (partitioned t src.node dst.node)
        then
          match Hashtbl.find_opt t.handlers (dst.node, dst.port) with
          | Some handler ->
            t.delivered <- t.delivered + 1;
            handler ~src msg
          | None -> note_drop t ~src ~dst ~reason:"unbound"
        else note_drop t ~src ~dst ~reason:"partitioned")
  end

let delivered t = t.delivered
let dropped t = t.dropped
