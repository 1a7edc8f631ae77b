module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Sched = Crane_sim.Sched
module Trace = Crane_trace.Trace

type node = string
type endpoint = { node : node; port : int }

type message = ..

type handler = src:endpoint -> message -> unit

(* A node's up-state and port handlers.  [Unseen] until a bind, a send
   from it or an explicit up/down names it: such a node is down as a
   destination, and its first send brings it up. *)
type status = Unseen | Up | Down

type node_state = {
  name : node;
  mutable status : status;
  mutable ports : (int * handler) list;
}

(* One (src, dst) pair, resolved once: its jitter/loss stream, its FIFO
   floor and both ends' states, so a send does one lookup and a delivery
   none.  [lid] numbers links in creation order. *)
type link = {
  lid : int;
  lsrc : node_state;
  ldst : node_state;
  rng : Rng.t;
  mutable floor : Time.t; (* latest delivery scheduled on the link *)
}

(* (src, dst) names compared as strings, not by polymorphic compare. *)
module Pairs = Hashtbl.Make (struct
  type t = node * node

  let equal (a, b) (c, d) = String.equal a c && String.equal b d
  let hash = Hashtbl.hash
end)

(* A send parked in the controlled fabric, waiting for the scheduler to
   deliver it.  Ids are assigned in send order, so the FIFO head of a
   link is its pending message with the smallest id. *)
type ctl_msg = {
  cm_id : int;
  cm_link : link;
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
  links : link Pairs.t;
  nodes : (node, node_state) Hashtbl.t;
  mutable base : Time.t;
  mutable jitter : Time.t;
  mutable loss : float;
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
    links = Pairs.create 64;
    nodes = Hashtbl.create 16;
    base = Time.us 40;
    jitter = Time.us 20;
    loss = 0.0;
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

let node_state t n =
  match Hashtbl.find_opt t.nodes n with
  | Some ns -> ns
  | None ->
    let ns = { name = n; status = Unseen; ports = [] } in
    Hashtbl.replace t.nodes n ns;
    ns

let node_up t n = (node_state t n).status <- Up
let node_down t n = (node_state t n).status <- Down

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
  let ns = node_state t ep.node in
  ns.status <- Up;
  ns.ports <- (ep.port, handler) :: List.remove_assoc ep.port ns.ports

let unbind t ep =
  let ns = node_state t ep.node in
  ns.ports <- List.remove_assoc ep.port ns.ports

let rec handler_of port = function
  | [] -> None
  | (p, h) :: rest -> if p = port then Some h else handler_of port rest

let link t src dst =
  match Pairs.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
    let l =
      {
        lid = Pairs.length t.links;
        lsrc = node_state t src;
        ldst = node_state t dst;
        rng = Rng.create (Hashtbl.hash (t.link_seed, src, dst));
        floor = min_int;
      }
    in
    Pairs.replace t.links (src, dst) l;
    l

(* Whether a message on [l] may arrive now: both ends up, no partition. *)
let passable t l =
  l.lsrc.status = Up && l.ldst.status = Up
  && not (partitioned t l.lsrc.name l.ldst.name)

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
      match Hashtbl.find_opt heads m.cm_link.lid with
      | Some m' when m'.cm_id < m.cm_id -> ()
      | _ -> Hashtbl.replace heads m.cm_link.lid m)
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
      if not (passable t m.cm_link) then note_drop t ~src ~dst ~reason:"partitioned"
      else begin
        let key = ctl_key m in
        let fate =
          Sched.choose sched ~label:"net.fate"
            ~keys:[| "deliver:" ^ key; "drop:" ^ key |]
        in
        if fate = 1 then note_drop t ~src ~dst ~reason:"mc_drop"
        else
          match handler_of dst.port m.cm_link.ldst.ports with
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

let ctl_send ~bytes t sched link ~src ~dst msg =
  if link.lsrc.status <> Up then note_drop t ~src ~dst ~reason:"src_down"
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
      {
        cm_id = id;
        cm_link = link;
        cm_src = src;
        cm_dst = dst;
        cm_msg = msg;
        cm_ready = ready;
      };
    Engine.at t.eng ready (fun () -> ctl_pump t sched)
  end

let send ?(bytes = 0) t ~src ~dst msg =
  let link = link t src.node dst.node in
  if link.lsrc.status = Unseen then link.lsrc.status <- Up;
  match Engine.sched t.eng with
  | Some sched -> ctl_send ~bytes t sched link ~src ~dst msg
  | None ->
  let up = link.lsrc.status = Up in
  if not up || Rng.chance link.rng t.loss then
    note_drop t ~src ~dst ~reason:(if up then "loss" else "src_down")
  else begin
    let arrival =
      Int.max link.floor
        (Engine.now t.eng + sample_delay t link.rng + (bytes * byte_cost))
    in
    link.floor <- arrival;
    Engine.at t.eng arrival (fun () ->
        if passable t link then
          match handler_of dst.port link.ldst.ports with
          | Some handler ->
            t.delivered <- t.delivered + 1;
            handler ~src msg
          | None -> note_drop t ~src ~dst ~reason:"unbound"
        else note_drop t ~src ~dst ~reason:"partitioned")
  end

let delivered t = t.delivered
let dropped t = t.dropped
