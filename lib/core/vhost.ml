(** The server-side virtual socket host: CRANE's synchronization wrappers
    (paper §3.2, Figures 10-11) plus the time-bubbling gate (§4).

    A replica's server program never touches the network: its blocking
    socket calls are admitted from the head of the local PAXOS sequence.
    In {e clocked} mode (the real system) admission happens at
    deterministic logical clocks: the gate — the paper's
    [check_add_timebubble], installed into every DMT lock wrapper and the
    idle thread — blocks while the sequence is empty (so logical clocks
    only tick when it is not), requests a time bubble from the proxy after
    Wtimeout of emptiness when some thread could spend its clocks, drains
    bubbles at the synchronization rate (at once when no thread can
    observe them), and signals the thread blocked on the socket object
    matching the head entry.

    In {e immediate} mode ("w/ Paxos only" and the plan-II ablation's
    building block) entries are admitted the moment consensus delivers
    them, so admission clocks differ across replicas — which is the point
    of those baselines. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Dmt = Crane_dmt.Dmt
module Bytestream = Crane_socket.Bytestream
module Trace = Crane_trace.Trace

type config = {
  wtimeout : Time.t;  (** empty-sequence duration before requesting a bubble (default 100 us) *)
  nclock : int;
      (** logical clocks granted per bubble (default 1000); a bubble
          requested for runnable threads in 1-lane mode grants a tenth *)
  bubbling : bool;  (** plan II of §7.2 sets this false *)
  pool : int;
      (** execute-stage worker pool width.  1 (default) is classic CRANE:
          entries admitted strictly from the sequence head.  Above 1 the
          gate becomes a dependency-aware scan: committed commands with
          disjoint declared footprints are admitted concurrently onto
          separate scheduler lanes (requires a {!Clocked} DMT created
          with [pool + 1] lanes); conflicting or undeclared commands keep
          total log order. *)
}

let default_config =
  {
    wtimeout = Time.us 100;
    nclock = 1000;
    bubbling = true;
    pool = 1;
  }

type signal_obj =
  | Dobj of int  (* DMT wait-queue object (clocked mode) *)
  | Raw of (unit -> bool) Queue.t  (* engine wakers (immediate mode) *)

type vconn = {
  vid : int;
  buf : Bytestream.t;
  mutable veof : bool;
  mutable vclosed : bool;
  mutable exec_open : bool;
      (* pool mode: an execute window (recv handoff -> next recv/close) is
         open on this connection; brackets the certifier's per-command
         event attribution *)
  cobj : signal_obj;
}

type vlistener = {
  lport : int;
  lobj : signal_obj;
  pending : int Queue.t; (* immediate mode: admitted connection ids *)
}

type clocking = Clocked of Dmt.t | Immediate

(** Callbacks into the proxy, registered atomically (the old per-callback
    setters were order-sensitive: a component could run with a
    half-registered set). *)
type handlers = {
  respond : conn:int -> string -> unit;
  on_server_close : int -> unit;
  request_bubble : int -> unit;  (** propose a bubble of that many clocks *)
}

let null_handlers =
  {
    respond = (fun ~conn:_ _ -> ());
    on_server_close = (fun _ -> ());
    request_bubble = ignore;
  }

(* Pool mode: one admitted-but-unretired command per connection.  Its
   footprint blocks conflicting later entries until the connection's
   worker proves quiescent again (drains its buffer and blocks in recv,
   or closes).  [afp = None] is a barrier: an undeclared command that
   conservatively touches everything. *)
type pool_entry = { aix : int; afp : Api.footprint option; alane : int }

type t = {
  eng : Engine.t;
  cfg : config;
  node : string;  (** replica name for trace attribution *)
  clocking : clocking;
  seq : Paxos_seq.t;
  conns : (int, vconn) Hashtbl.t;
  listeners : (int, vlistener) Hashtbl.t;
  output : Output_log.t;
  pool_active : (int, pool_entry) Hashtbl.t;  (* conn -> active command *)
  lane_load : int array;  (* per DMT lane: active commands placed on it *)
  mutable pool_fp : string -> Api.footprint option;
  mutable handlers : handlers;
  mutable last_bubble_request : Time.t;
  mutable stopped : bool;
  mutable open_conns : int;
  mutable admitted : int;
  (* Read-watermark bookkeeping: per connection, the index of the last
     admitted Send whose processing may still be in flight.  An entry is
     cleared when the connection proves quiescent — its server thread
     drains the buffer and blocks in recv (everything admitted before
     that instant has been fully executed), or the server closes it.
     Bounded-stale reads subtract these from the claimed watermark so a
     read never claims an index whose state effects are still pending. *)
  inflight : (int, int) Hashtbl.t;
  (* Round-robin cursor for lane placement ties.  Load counts only
     active (unretired) commands, and a connection that blocks in recv
     retires instantly — so at a burst's admission every worker lane
     reads load 0, and a fixed tie-break would pile the whole burst
     onto one lane. *)
  mutable pool_rr : int;
  mutable last_gate_clock : int;
  (* Pool gate: [epoch] is bumped by every change a scan reads outside
     the sequence (listeners, connections, retirements).  A scan that
     admits nothing records the sequence version and epoch it saw; while
     both hold, the next scan would admit nothing too. *)
  mutable epoch : int;
  mutable scan_version : int;
  mutable scan_epoch : int;
  scan_blocked : (int, unit) Hashtbl.t; (* per-scan scratch, reused *)
  (* gate statistics *)
  mutable bulk_drains : int;
  mutable delta_drained : int;
  mutable gate_blocks : int;
  mutable gate_block_time : Time.t;
}

let new_signal_obj t =
  match t.clocking with
  | Clocked dmt -> Dobj (Dmt.new_obj dmt)
  | Immediate -> Raw (Queue.create ())

let make_vconn t vid =
  let c =
    { vid; buf = Bytestream.create (); veof = false; vclosed = false;
      exec_open = false; cobj = new_signal_obj t }
  in
  Hashtbl.replace t.conns vid c;
  t.open_conns <- t.open_conns + 1;
  t.epoch <- t.epoch + 1;
  c

let signal_one ?lane t obj =
  match (t.clocking, obj) with
  | Clocked dmt, Dobj o -> Dmt.signal ?lane dmt ~obj:o
  | _, Raw q ->
    let rec go () =
      match Queue.take_opt q with
      | None -> ()
      | Some wake -> if not (wake ()) then go ()
    in
    go ()
  | Immediate, Dobj _ -> assert false

(* Admission bookkeeping: count, and expose the running total as a trace
   gauge so admission rate is visible on the replica's timeline. *)
let note_admit t =
  t.admitted <- t.admitted + 1;
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.node ~ph:(Trace.Counter t.admitted) Trace.Admitted

(* ------------------------------------------------------------------ *)
(* Dependency-aware pool admission (pool > 1, clocked mode only). *)

let pool_mode t = t.cfg.pool > 1

let fp_conflict a b =
  let inter l1 l2 = List.exists (fun x -> List.mem x l2) l1 in
  inter a.Api.fp_writes b.Api.fp_writes
  || inter a.Api.fp_writes b.Api.fp_reads
  || inter a.Api.fp_reads b.Api.fp_writes

let pool_has_barrier t =
  Hashtbl.fold (fun _ e acc -> acc || e.afp = None) t.pool_active false

let pool_activate t conn e =
  Hashtbl.replace t.pool_active conn e;
  t.lane_load.(e.alane) <- t.lane_load.(e.alane) + 1

(* Whether [conn] had an active command. *)
let pool_deactivate t conn =
  match Hashtbl.find_opt t.pool_active conn with
  | Some e ->
    Hashtbl.remove t.pool_active conn;
    t.lane_load.(e.alane) <- t.lane_load.(e.alane) - 1;
    true
  | None -> false

(* The connection's worker proved quiescent: everything admitted on it has
   fully executed, so its footprint stops blocking later commands and the
   read watermark may advance past it. *)
let pool_retire t (c : vconn) =
  Hashtbl.remove t.inflight c.vid;
  if pool_deactivate t c.vid then t.epoch <- t.epoch + 1

(* Execute-window brackets for the conflict-serializability certifier:
   [begin] when recv hands admitted bytes to server code, [end] when the
   same connection next blocks in recv (or closes).  Everything a worker
   does in between is attributed to the bracketed consensus index. *)
let exec_end t (c : vconn) =
  if c.exec_open then begin
    c.exec_open <- false;
    if Engine.tracing t.eng then Engine.emit t.eng ~node:t.node (Trace.Exec_end { conn = c.vid })
  end

let exec_begin t (c : vconn) ~index ~lane =
  c.exec_open <- true;
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.node (Trace.Exec_begin { index; conn = c.vid; lane })

(* Place an admitted command on the least-loaded worker lane (lane 0 is
   the idle/bootstrap lane).  Purely a performance decision — derived
   from deterministic state under the turn, so it is itself
   deterministic — and never a correctness one: admission already
   guarantees concurrent commands are footprint-disjoint. *)
let pool_pick_lane t dmt =
  let lanes = Dmt.lane_count dmt in
  if lanes <= 1 then 0
  else begin
    let load = t.lane_load in
    let nw = lanes - 1 in
    let best = ref (1 + (t.pool_rr mod nw)) in
    for i = 1 to nw - 1 do
      let l = 1 + ((t.pool_rr + i) mod nw) in
      if load.(l) < load.(!best) then best := l
    done;
    t.pool_rr <- t.pool_rr + 1;
    !best
  end

let pool_scan_limit = 128

(* One admission scan over the decided sequence, in index order.  An entry
   is admissible iff every earlier entry of its connection was admitted
   (per-connection FIFO: one skip blocks the connection for the rest of
   the scan) and its footprint conflicts with no unretired earlier
   command — active or skipped — so per-resource order always follows
   index order.  Undeclared commands ([footprint] = None) are barriers:
   admitted only alone, blocking everything behind them. *)
let pool_scan t dmt =
  let blocked = t.scan_blocked in
  Hashtbl.clear blocked;
  let skipped_fps = ref [] in
  let skipped_any = ref false in
  let skipped_barrier = ref false in
  let barrier_live = ref (pool_has_barrier t) in
  let conflicts_existing fp =
    Hashtbl.fold
      (fun _ e acc ->
        acc
        || match e.afp with Some afp -> fp_conflict fp afp | None -> true)
      t.pool_active false
    || List.exists (fun sfp -> fp_conflict fp sfp) !skipped_fps
  in
  let skip_conn conn =
    Hashtbl.replace blocked conn ();
    skipped_any := true;
    `Skip
  in
  Paxos_seq.scan_admit t.seq ~limit:pool_scan_limit ~classify:t.pool_fp
    (fun ix ev fp ->
      match ev with
      | Event.Time_bubble _ -> `Stop (* unreachable: the scan stops at bubbles *)
      | Event.Connect { conn; port } ->
        if !barrier_live || !skipped_barrier then skip_conn conn
        else (
          match Hashtbl.find_opt t.listeners port with
          | Some l ->
            let (_ : vconn) = make_vconn t conn in
            note_admit t;
            Queue.add conn l.pending;
            signal_one ~lane:0 t l.lobj;
            `Admit
          | None -> skip_conn conn (* server not listening yet *))
      | Event.Send { conn; payload } -> (
        if Hashtbl.mem blocked conn then begin
          (match fp with
          | Some fp -> skipped_fps := fp :: !skipped_fps
          | None -> skipped_barrier := true);
          skipped_any := true;
          `Skip
        end
        else
          match Hashtbl.find_opt t.conns conn with
          | Some c when not c.vclosed -> (
            if
              Hashtbl.mem t.pool_active conn
              || !barrier_live || !skipped_barrier
            then begin
              (match fp with
              | Some fp -> skipped_fps := fp :: !skipped_fps
              | None -> skipped_barrier := true);
              skip_conn conn
            end
            else
              match fp with
              | None ->
                if Hashtbl.length t.pool_active = 0 && not !skipped_any then begin
                  (* barrier admitted alone, in strict log order *)
                  Bytestream.push c.buf payload;
                  Hashtbl.replace t.inflight conn ix;
                  pool_activate t conn { aix = ix; afp = None; alane = 0 };
                  barrier_live := true;
                  note_admit t;
                  signal_one ~lane:0 t c.cobj;
                  `Admit
                end
                else begin
                  skipped_barrier := true;
                  skip_conn conn
                end
              | Some fp ->
                if conflicts_existing fp then begin
                  skipped_fps := fp :: !skipped_fps;
                  skip_conn conn
                end
                else begin
                  let lane = pool_pick_lane t dmt in
                  Bytestream.push c.buf payload;
                  Hashtbl.replace t.inflight conn ix;
                  pool_activate t conn { aix = ix; afp = Some fp; alane = lane };
                  note_admit t;
                  signal_one ~lane t c.cobj;
                  `Admit
                end)
          | Some _ | None ->
            (* server already closed it (or never had it): admit and
               discard, mirroring the head-dispatch drop *)
            `Admit)
      | Event.Close { conn } -> (
        if Hashtbl.mem blocked conn then begin
          skipped_any := true;
          `Skip
        end
        else
          match Hashtbl.find_opt t.conns conn with
          | Some c when not c.vclosed ->
            (* EOF after any buffered data; the worker observes it once
               its buffer drains.  Deliberately does NOT clear inflight:
               an active command may still be executing. *)
            c.veof <- true;
            signal_one ~lane:0 t c.cobj;
            `Admit
          | Some _ | None -> `Admit))

(* The gate — paper Figure 10, [check_add_timebubble].  Runs with the DMT
   turn held (from lock wrappers and the idle thread).  One reading of
   the gate's state decides what the gate does, whether it would block,
   and how many idle-cycle calls ahead are pure, so the three cannot
   drift apart. *)
type gate_state =
  | Wait_entries  (** bubbling on, nothing queued: park until a delivery *)
  | Bulk_drain  (** bubble at the head, idle thread alone: drain at once *)
  | Delta_drain  (** bubble at the head: drain the ticks since the last call *)
  | Scan  (** pool mode: admission scan *)
  | Rescan  (** pool mode: nothing changed since a scan that admitted nothing *)
  | Dispatch  (** 1-lane: signal the thread the head entry is for *)
  | Nothing  (** nothing queued, bubbling off *)

let gate_state t dmt =
  if Paxos_seq.head_is_bubble t.seq then
    if Dmt.only_one_runnable dmt then Bulk_drain else Delta_drain
  else if Paxos_seq.is_empty t.seq then if t.cfg.bubbling then Wait_entries else Nothing
  else if pool_mode t then
    if Paxos_seq.version t.seq = t.scan_version && t.epoch = t.scan_epoch then Rescan
    else Scan
  else Dispatch

(* The size of a bubble worth requesting now, if any.  Only a runnable
   thread besides the idle thread, or a pending soft-barrier timeout, can
   observe the clock; otherwise a bubble is a wasted consensus round that
   delays the calls decided behind it.  Runnable threads drain bubbles at
   their sync rate: in one lane the clock moves only as they synchronize,
   and a tenth of [nclock] lasts; in pool mode the idle thread ticks its
   own lane at the turn rate, and spanning a Wtimeout takes all of it. *)
let bubble_wanted t dmt =
  if not (Dmt.only_one_runnable dmt) then
    Some (if pool_mode t then t.cfg.nclock else max 1 (t.cfg.nclock / 10))
  else if Dmt.next_tick_hook dmt <> None then Some t.cfg.nclock
  else None

(* Park while the sequence is empty (logical clocks only tick when it is
   not) until an append, or the Wtimeout deadline when a bubble is worth
   requesting. *)
let wait_entries t dmt =
  let t0 = Engine.now t.eng in
  t.gate_blocks <- t.gate_blocks + 1;
  let traced = Engine.tracing t.eng in
  if traced then Engine.emit t.eng ~node:t.node ~ph:Trace.Begin Trace.Gate_block;
  while Paxos_seq.is_empty t.seq && not t.stopped do
    match bubble_wanted t dmt with
    | None -> Paxos_seq.park t.seq
    | Some clocks ->
      let now = Engine.now t.eng in
      let waited = min (Paxos_seq.empty_for t.seq) (now - t.last_bubble_request) in
      if waited >= t.cfg.wtimeout then begin
        t.last_bubble_request <- now;
        t.handlers.request_bubble clocks
      end
      else Paxos_seq.park t.seq ~timeout:(t.cfg.wtimeout - waited)
  done;
  if traced then Engine.emit t.eng ~node:t.node ~ph:Trace.End Trace.Gate_block;
  t.gate_block_time <- t.gate_block_time + (Engine.now t.eng - t0)

(* Everything but [wait_entries]; none of it blocks. *)
let gate_act t dmt state =
  (* A bubble promises Nclock *synchronizations* (every turn handoff
     ticks the logical clock), but this hook only runs on lock wrappers
     and idle cycles: charge the ticks elapsed since the previous gate
     call so bubbles drain at the scheduler's real synchronization rate. *)
  let now_clock = Dmt.clock dmt in
  let tick_delta = max 1 (now_clock - t.last_gate_clock) in
  t.last_gate_clock <- now_clock;
  match state with
  | Wait_entries | Rescan | Nothing -> ()
  | Bulk_drain ->
    (* Only the idle thread is runnable, so nothing observes the clocks:
       drain at once ("exhausted rapidly", §4), but stop at a pending
       soft-barrier deadline, where released threads drain the rest at
       their sync rate.  The idle thread's [put_turn] ticks the last. *)
    t.bulk_drains <- t.bulk_drains + 1;
    let left = Paxos_seq.bubble_left t.seq in
    let clocks =
      match Dmt.next_tick_hook dmt with
      | Some deadline -> max 1 (min left (deadline - now_clock))
      | None -> left
    in
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node (Trace.Bubble_drain { clocks; bulk = true });
    Paxos_seq.drain_bubble_upto t.seq clocks;
    Dmt.advance_clock dmt (clocks - 1);
    t.last_gate_clock <- now_clock + clocks
  | Delta_drain ->
    t.delta_drained <- t.delta_drained + 1;
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node (Trace.Bubble_drain { clocks = tick_delta; bulk = false });
    Paxos_seq.drain_bubble_upto t.seq tick_delta
  | Scan ->
    (* Dependency-aware admission: scan past the head, admitting every
       decided command whose footprint conflicts with nothing earlier
       still unretired. *)
    let version = Paxos_seq.version t.seq and epoch = t.epoch in
    pool_scan t dmt;
    if Paxos_seq.version t.seq = version && t.epoch = epoch then begin
      t.scan_version <- version;
      t.scan_epoch <- epoch
    end
  | Dispatch -> (
    match Paxos_seq.head_call t.seq with
    | Event.Connect { port; _ } -> (
      match Hashtbl.find_opt t.listeners port with
      | Some l -> signal_one t l.lobj
      | None -> () (* server not listening yet: leave at head *))
    | Event.Send { conn; _ } | Event.Close { conn } -> (
      match Hashtbl.find_opt t.conns conn with
      | Some c when not c.vclosed -> signal_one t c.cobj
      | Some _ | None ->
        (* The server already closed this connection (or never had it):
           discard, or the sequence would jam. *)
        Paxos_seq.drop_head t.seq)
    | Event.Time_bubble _ -> assert false (* [gate_state] said no bubble *))

let gate t dmt =
  if t.cfg.bubbling && Paxos_seq.is_empty t.seq then wait_entries t dmt;
  gate_act t dmt (gate_state t dmt)

let try_gate t dmt =
  match gate_state t dmt with
  | Wait_entries -> false
  | state ->
    gate_act t dmt state;
    true

(* The gate's closed form, for the idle thread alone in its lane: each
   cycle ticks the clock once, then calls the gate. *)
let gate_ahead t dmt =
  match gate_state t dmt with
  | Delta_drain ->
    (* The first call drains the ticks since the last one, each later
       call one tick, until the bubble is gone. *)
    let left = Paxos_seq.bubble_left t.seq in
    let first = max 1 (Dmt.clock dmt + 1 - t.last_gate_clock) in
    if left = 0 then 0 else 1 + max 0 (left - first)
  | Rescan | Nothing -> max_int
  | Wait_entries | Bulk_drain | Scan | Dispatch -> 0

let gate_skip t dmt n =
  let now_clock = Dmt.clock dmt in
  (match gate_state t dmt with
  | Delta_drain ->
    t.delta_drained <- t.delta_drained + n;
    Paxos_seq.drain_bubble_upto t.seq (now_clock - t.last_gate_clock)
  | Wait_entries | Bulk_drain | Scan | Rescan | Dispatch | Nothing -> ());
  t.last_gate_clock <- now_clock

let create ?(node = "") eng ~cfg ~clocking =
  let t =
    {
      eng;
      cfg;
      node;
      clocking;
      seq = Paxos_seq.create ~node eng;
      conns = Hashtbl.create 64;
      listeners = Hashtbl.create 4;
      output = Output_log.create ();
      pool_active = Hashtbl.create 8;
      lane_load =
        Array.make (match clocking with Clocked dmt -> Dmt.lane_count dmt | Immediate -> 1) 0;
      pool_fp = (fun _ -> None);
      handlers = null_handlers;
      last_bubble_request = Time.zero;
      stopped = false;
      open_conns = 0;
      admitted = 0;
      inflight = Hashtbl.create 64;
      pool_rr = 0;
      last_gate_clock = 0;
      epoch = 0;
      scan_version = -1;
      scan_epoch = -1;
      scan_blocked = Hashtbl.create 8;
      bulk_drains = 0;
      delta_drained = 0;
      gate_blocks = 0;
      gate_block_time = Time.zero;
    }
  in
  (match clocking with
  | Clocked dmt ->
    Dmt.set_gate dmt
      {
        Dmt.run = (fun () -> gate t dmt);
        try_run = (fun () -> try_gate t dmt);
        ahead = (fun () -> gate_ahead t dmt);
        skip = (fun n -> gate_skip t dmt n);
        wake = (fun () -> Paxos_seq.wake t.seq);
      }
  | Immediate -> ());
  t

(* ------------------------------------------------------------------ *)
(* Delivery from the proxy (consensus decision order). *)

let deliver t ?index ?view ev =
  match t.clocking with
  | Clocked _ -> Paxos_seq.append t.seq ?index ?view ev
  | Immediate -> (
    Paxos_seq.append t.seq ?index ?view ev;
    (* Admit instantly: drain the queue into connection state. *)
    let rec drain () =
      match Paxos_seq.head t.seq with
      | None -> ()
      | Some (Event.Time_bubble _) ->
        (* No clocking to grant: bubbles are inert here. *)
        ignore (Paxos_seq.drain_bubble t.seq : int);
        drain ()
      | Some (Event.Connect { conn; port }) ->
        Paxos_seq.drop_head t.seq;
        note_admit t;
        (match Hashtbl.find_opt t.listeners port with
        | Some l ->
          let (_ : vconn) = make_vconn t conn in
          Queue.add conn l.pending;
          signal_one t l.lobj
        | None -> ());
        drain ()
      | Some (Event.Send { conn; payload }) ->
        let ix = Paxos_seq.drop_head_ix t.seq in
        (match Hashtbl.find_opt t.conns conn with
        | Some c when not c.vclosed ->
          Bytestream.push c.buf payload;
          Hashtbl.replace t.inflight conn ix;
          note_admit t;
          signal_one t c.cobj
        | Some _ | None -> ());
        drain ()
      | Some (Event.Close { conn }) ->
        Paxos_seq.drop_head t.seq;
        (match Hashtbl.find_opt t.conns conn with
        | Some c ->
          c.veof <- true;
          signal_one t c.cobj
        | None -> ());
        drain ()
    in
    drain ())

(* ------------------------------------------------------------------ *)
(* Socket-call wrappers: clocked mode (Figures 10-11). *)

let listen t ~port =
  if Hashtbl.mem t.listeners port then
    invalid_arg (Printf.sprintf "Vhost.listen: port %d taken" port);
  let l = { lport = port; lobj = new_signal_obj t; pending = Queue.create () } in
  Hashtbl.replace t.listeners port l;
  t.epoch <- t.epoch + 1;
  l

let head_is_connect_for t l =
  match Paxos_seq.head t.seq with
  | Some (Event.Connect { port; _ }) -> port = l.lport
  | Some (Event.Send _ | Event.Close _ | Event.Time_bubble _) | None -> false

let raw_wait t q =
  Engine.suspend t.eng (fun wake -> Queue.add (fun () -> wake ()) q)

(* Run [f] holding the turn (clocked mode). *)
let with_turn t f =
  match t.clocking with
  | Clocked dmt ->
    Dmt.get_turn dmt;
    let r = f () in
    Dmt.put_turn dmt;
    r
  | Immediate -> f ()

(* Where [accept] finds a connection: at the sequence head in 1-lane
   clocked mode, else in [pending] (pool scan, immediate delivery). *)
let admits_at_head t = match t.clocking with Clocked _ -> not (pool_mode t) | Immediate -> false

let await_connect t l =
  while
    not (if admits_at_head t then head_is_connect_for t l else not (Queue.is_empty l.pending))
  do
    match (t.clocking, l.lobj) with
    | Clocked dmt, Dobj o -> Dmt.wait dmt ~obj:o
    | Immediate, Raw q -> raw_wait t q
    | (Clocked _ | Immediate), (Dobj _ | Raw _) -> assert false
  done

let poll t l = with_turn t (fun () -> await_connect t l)

let accept t l =
  with_turn t (fun () ->
      await_connect t l;
      if not (admits_at_head t) then Hashtbl.find t.conns (Queue.pop l.pending)
      else
        match Paxos_seq.head t.seq with
        | Some (Event.Connect { conn; _ }) ->
          Paxos_seq.drop_head t.seq;
          note_admit t;
          make_vconn t conn
        | Some _ | None -> assert false)

(* Move entries for [c] sitting at the sequence head into its buffer. *)
let rec consume_admitted t (c : vconn) =
  match Paxos_seq.head t.seq with
  | Some (Event.Send { conn; payload }) when conn = c.vid ->
    let ix = Paxos_seq.drop_head_ix t.seq in
    Hashtbl.replace t.inflight c.vid ix;
    note_admit t;
    Bytestream.push c.buf payload;
    consume_admitted t c
  | Some (Event.Close { conn }) when conn = c.vid ->
    Paxos_seq.drop_head t.seq;
    (* The admitting thread is blocked in recv, so earlier requests on
       this connection have already executed: safe to stop tracking. *)
    Hashtbl.remove t.inflight c.vid;
    c.veof <- true
  | Some (Event.Connect _ | Event.Send _ | Event.Close _ | Event.Time_bubble _)
  | None -> ()

let recv t (c : vconn) ~max =
  (* recv on a connection this server already closed returns EOF
     immediately: its sequence entries are discarded by the gate, so
     waiting would never be signalled. *)
  (match t.clocking with
  | Clocked dmt when pool_mode t ->
    (* Pool mode: payloads were pushed into the buffer by the admission
       scan; recv only retires, brackets the execute window, and takes. *)
    Dmt.get_turn dmt;
    exec_end t c;
    (match c.cobj with
    | Dobj o ->
      while Bytestream.is_empty c.buf && (not c.veof) && not c.vclosed do
        (* About to block with an empty buffer: every admitted command on
           this connection has fully executed — retire it, freeing its
           footprint and the read watermark. *)
        pool_retire t c;
        Dmt.wait dmt ~obj:o
      done
    | Raw _ -> assert false);
    if Bytestream.is_empty c.buf then pool_retire t c
    else begin
      let index =
        Option.value (Hashtbl.find_opt t.inflight c.vid) ~default:0
      in
      (* If admission raced ahead of this worker's first recv, the
         re-laning signal found no parked waiter: move ourselves onto
         the command's assigned lane before opening the window. *)
      (match Hashtbl.find_opt t.pool_active c.vid with
      | Some { alane; _ } when alane > 0 -> Dmt.relane dmt ~lane:alane
      | Some _ | None -> ());
      exec_begin t c ~index ~lane:(Dmt.current_lane dmt)
    end;
    Dmt.put_turn dmt
  | Clocked dmt ->
    Dmt.get_turn dmt;
    consume_admitted t c;
    (match c.cobj with
    | Dobj o ->
      while Bytestream.is_empty c.buf && (not c.veof) && not c.vclosed do
        (* About to block with an empty buffer: every admitted request on
           this connection has been fully executed. *)
        Hashtbl.remove t.inflight c.vid;
        Dmt.wait dmt ~obj:o;
        consume_admitted t c
      done
    | Raw _ -> assert false);
    Dmt.put_turn dmt
  | Immediate -> (
    match c.cobj with
    | Raw q ->
      while Bytestream.is_empty c.buf && (not c.veof) && not c.vclosed do
        Hashtbl.remove t.inflight c.vid;
        raw_wait t q
      done
    | Dobj _ -> assert false));
  if Bytestream.is_empty c.buf then Hashtbl.remove t.inflight c.vid;
  if c.vclosed then "" else Bytestream.take c.buf ~max

let send t (c : vconn) payload =
  let deliver () =
    Output_log.record t.output ~conn:c.vid payload;
    (* The server produced the response for whatever request it last
       admitted on this connection: the execute -> reply boundary. *)
    if Engine.tracing t.eng then
      Engine.emit t.eng ~node:t.node
        (Trace.Reply { conn = c.vid; bytes = String.length payload });
    if not c.vclosed then t.handlers.respond ~conn:c.vid payload
  in
  (* Outgoing calls are scheduled by DMT but need no consensus (§2.1). *)
  with_turn t deliver

(* A closed vconn leaves [conns]: every reader treats a missing
   connection exactly like a closed one, so the table holds open
   connections only ([Hashtbl.length conns = open_conns]). *)
let close t (c : vconn) =
  let perform () =
    if not c.vclosed then begin
      c.vclosed <- true;
      Hashtbl.remove t.conns c.vid;
      t.open_conns <- t.open_conns - 1;
      t.epoch <- t.epoch + 1;
      Hashtbl.remove t.inflight c.vid;
      ignore (pool_deactivate t c.vid);
      t.handlers.on_server_close c.vid
    end
  in
  with_turn t (fun () ->
      exec_end t c;
      perform ())

let conn_id (c : vconn) = c.vid

(* ------------------------------------------------------------------ *)

let stop t = t.stopped <- true
let output t = t.output
let seq t = t.seq
let open_conns t = t.open_conns
let admitted t = t.admitted

let gate_stats t = (t.bulk_drains, t.delta_drained, t.gate_blocks, t.gate_block_time)

(* Highest consensus index whose state effects this replica's server is
   guaranteed to reflect: everything applied by consensus, minus entries
   still queued in the sequence, minus admitted-but-possibly-executing
   requests.  An index-0 entry (pre-index replay) claims nothing. *)
let read_watermark t ~applied =
  let wm =
    match Paxos_seq.lowest_index t.seq with
    | Some ix -> min applied (max 0 (ix - 1))
    | None -> applied
  in
  Hashtbl.fold (fun _ ix acc -> min acc (max 0 (ix - 1))) t.inflight wm

let set_handlers t handlers = t.handlers <- handlers

let set_footprint t f =
  t.pool_fp <- f;
  t.epoch <- t.epoch + 1
(** Install the server's conflict-footprint classifier (pool mode). *)

let pool t = t.cfg.pool
