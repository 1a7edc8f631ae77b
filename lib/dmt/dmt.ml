module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

type dthread = {
  dtid : int;
  dname : string;
  mutable parked : (unit -> bool) option;
      (* Waker armed while the thread waits to become the run-queue head. *)
  mutable lane : int; (* which run queue the thread currently lives in *)
}

(* One run queue.  The classic PARROT scheduler is the 1-lane case; the
   dependency-aware delivery layer creates one extra lane per pool worker
   and re-lanes a thread at signal time, so commands with disjoint
   conflict footprints round-robin independently instead of stalling
   behind each other's compute segments.  Lanes are purely a performance
   placement: admission (in the vhost) never lets two conflicting
   commands execute concurrently, whatever their lanes. *)
type lane = {
  mutable lq : dthread list; (* head = turn holder of this lane *)
  mutable lsig : int; (* insertion point for signalled threads *)
}

(* Engine tids are small sequential ints: hash them as themselves.
   [me] runs on every turn, and remembers the thread it resolved last. *)
module Tids = Hashtbl.Make (struct
  include Int

  let hash t = t land max_int
end)

(* CRANE's gate hook, see [set_gate] in the interface. *)
type gate = {
  run : unit -> unit;
  try_run : unit -> bool;
  ahead : unit -> int;
  skip : int -> unit;
  wake : unit -> unit;
}

(* Where the idle thread picks up when its spin ends: pace with
   [idle_period], re-take the turn, or run a gate that blocks. *)
type idle_resume = Pace | Loop | Gate

type t = {
  eng : Engine.t;
  turn_cost : Time.t;
  idle_period : Time.t;
  lanes : lane array; (* lane 0 hosts the idle thread and fresh spawns *)
  waitq : (int, dthread Queue.t) Hashtbl.t;
  threads : dthread Tids.t; (* engine tid -> dthread *)
  mutable last : dthread; (* the thread [me] resolved last *)
  mutable clock : int;
  mutable next_obj : int;
  mutable gate : gate option;
  mutable tick_hooks : (int * (unit -> unit)) list;
  mutable stopped : bool;
  mutable label : string; (* replica name for trace attribution *)
  mutable idle_alone : bool; (* idle thread alone when it last ran the gate *)
  mutable idle_resume : idle_resume;
}

let engine t = t.eng
let clock t = t.clock
let set_gate t gate = t.gate <- Some gate
let set_label t node = t.label <- node
let lane_count t = Array.length t.lanes
let lane_of t th = t.lanes.(th.lane)

(* O(lanes): stops counting a lane at its second thread. *)
let only_one_runnable t =
  let n = ref 0 in
  for i = 0 to Array.length t.lanes - 1 do
    match t.lanes.(i).lq with
    | [] -> ()
    | [ _ ] -> incr n
    | _ :: _ :: _ -> n := 2
  done;
  !n = 1

let new_obj t =
  let o = t.next_obj in
  t.next_obj <- o + 1;
  o

(* No registered thread: [last] before any lookup, and what [find] returns
   for an unregistered caller.  No engine tid is [min_int]. *)
let no_dthread = { dtid = min_int; dname = "-"; parked = None; lane = 0 }

let find t =
  let tid = Engine.self_tid t.eng in
  if t.last.dtid = tid then t.last
  else
    match Tids.find_opt t.threads tid with
    | Some th ->
      t.last <- th;
      th
    | None -> no_dthread

let me t =
  let th = find t in
  if th == no_dthread then
    failwith "Dmt: calling thread is not registered with this scheduler";
  th

let is_thread t = find t != no_dthread
let current_lane t = (find t).lane

(* Sanitizer hook: stream a sync event through the engine's recorder. *)
let sync t op o =
  if Engine.tracing t.eng then Engine.emit t.eng ~node:t.label (Trace.Sync (op, o))

(* A fresh synchronization object, labelled [name] or "<kind>#<id>". *)
let sync_obj ?name t kind prefix =
  let obj = new_obj t in
  let label = match name with Some n -> n | None -> Printf.sprintf "%s#%d" prefix obj in
  { Trace.obj; kind; label }

let is_head t th = match (lane_of t th).lq with h :: _ -> h == th | [] -> false

(* Wake a lane's head if it is parked waiting for the turn. *)
let wake_head t lane =
  match t.lanes.(lane).lq with
  | [] -> ()
  | h :: _ -> (
    match h.parked with
    | Some wake ->
      h.parked <- None;
      ignore (wake ())
    | None -> ())

(* Parking is where PARROT's serialization cost lives: the span from
   park to resumption is the round-robin turn wait the paper's overhead
   analysis attributes to DMT. *)
let park t th =
  let traced = Engine.tracing t.eng in
  let runq = if traced then List.length (lane_of t th).lq else 0 in
  if traced then Engine.emit t.eng ~node:t.label ~ph:Trace.Begin (Trace.Turn_wait { runq });
  Engine.suspend t.eng (fun wake -> th.parked <- Some wake);
  if traced then Engine.emit t.eng ~node:t.label ~ph:Trace.End (Trace.Turn_wait { runq });
  assert (is_head t th)

let get_turn t =
  let th = me t in
  if not (is_head t th) then park t th

(* Advance the logical clock by one and fire due deterministic timeouts
   (soft barriers). *)
let tick t =
  t.clock <- t.clock + 1;
  match t.tick_hooks with
  | [] -> ()
  | hooks ->
    let due, later = List.partition (fun (d, _) -> d <= t.clock) hooks in
    t.tick_hooks <- later;
    List.iter (fun (_, f) -> f ()) due

let at_tick t deadline f = t.tick_hooks <- t.tick_hooks @ [ (deadline, f) ]

let next_tick_hook t =
  List.fold_left (fun acc (d, _) -> Some (Option.fold ~none:d ~some:(min d) acc)) None t.tick_hooks

(* Bulk clock advance: used when the idle thread is alone in the run
   queue and drains a whole time bubble at once — equivalent to that many
   idle rotations, since no other thread could interleave. *)
let advance_clock t n =
  for _ = 1 to n do
    tick t
  done

let rotate t lane =
  let l = t.lanes.(lane) in
  match l.lq with
  | [] | [ _ ] -> ()
  | h :: rest -> l.lq <- rest @ [ h ]

(* What [put_turn] does once its [turn_cost] has elapsed. *)
let pass_turn t th =
  rotate t th.lane;
  (lane_of t th).lsig <- 1;
  tick t;
  wake_head t th.lane

let put_turn t =
  let th = me t in
  assert (is_head t th);
  Engine.sleep t.eng t.turn_cost;
  pass_turn t th

(* Remove the head (the caller) from the run queue and hand the turn over
   without rotating the caller to the tail. *)
let leave_runq t th =
  assert (is_head t th);
  let l = lane_of t th in
  l.lq <- List.tl l.lq;
  l.lsig <- 1;
  tick t;
  wake_head t th.lane

let waitq_of t obj =
  match Hashtbl.find_opt t.waitq obj with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.add t.waitq obj q;
    q

let wait t ~obj =
  let th = me t in
  Queue.add th (waitq_of t obj);
  leave_runq t th;
  park t th

(* Insert a signalled thread just behind a lane's head (and behind
   previously signalled ones), so it takes the turn right after the
   signaller. *)
let insert_at t lane pos th =
  let l = t.lanes.(lane) in
  let rec go i = function
    | rest when i = pos -> th :: rest
    | x :: rest -> x :: go (i + 1) rest
    | [] -> [ th ]
  in
  l.lq <- go 0 l.lq

(* [?lane] re-lanes the woken waiter: the dependency-aware gate signals a
   worker into the lane of its command's conflict footprint.  Without it,
   the waiter joins the signaller's lane (the 1-lane behaviour).  A
   cross-lane insert can land at the head of an idle lane, where nobody
   would ever rotate to it — wake it directly.  A queue leaves the table
   once it is empty ([wait] makes a fresh one), so the table holds only
   objects someone waits on. *)
let signal ?lane t ~obj =
  match Hashtbl.find_opt t.waitq obj with
  | None -> ()
  | Some q -> (
    let next = Queue.take_opt q in
    if Queue.is_empty q then Hashtbl.remove t.waitq obj;
    match next with
    | None -> ()
    | Some th ->
      let target =
        match lane with
        | Some l -> l mod Array.length t.lanes
        | None -> current_lane t
      in
      th.lane <- target;
      let l = t.lanes.(target) in
      insert_at t target l.lsig th;
      l.lsig <- l.lsig + 1;
      if is_head t th then (
        match th.parked with
        | Some wake ->
          th.parked <- None;
          ignore (wake ())
        | None -> ()))

(* Migrate the calling thread (which must hold its lane's turn) to
   [lane].  [signal ?lane] re-lanes a parked waiter, but a worker whose
   command bytes were pushed before it ever blocked never parks — it
   would run the whole command on whatever lane it happened to occupy.
   The delivery layer calls this at the execute-window boundary to put
   the worker on its command's assigned lane.  All inputs are
   deterministic state under the turn, so placement is replayable. *)
let relane t ~lane =
  let th = me t in
  let target = lane mod Array.length t.lanes in
  if target <> th.lane then begin
    assert (is_head t th);
    let l = t.lanes.(target) in
    leave_runq t th;
    th.lane <- target;
    insert_at t target l.lsig th;
    l.lsig <- l.lsig + 1;
    if not (is_head t th) then park t th
  end

let signal_all ?lane t ~obj =
  match Hashtbl.find_opt t.waitq obj with
  | None -> ()
  | Some q ->
    while not (Queue.is_empty q) do
      signal ?lane t ~obj
    done

(* The two ways into a run queue without the turn; every other one
   ([signal], [relane], soft-barrier release) cannot race a blocked gate. *)
let joined_outside t = match t.gate with Some g -> g.wake () | None -> ()

let block_external t f =
  let th = me t in
  get_turn t;
  leave_runq t th;
  let result = f () in
  (* Rejoin in completion order: this is where network-arrival
     nondeterminism re-enters a plain PARROT execution. *)
  let l = lane_of t th in
  l.lq <- l.lq @ [ th ];
  joined_outside t;
  result

(* Thread creation is itself a synchronization operation: the child's
   run-queue insertion point must be decided under the turn (when spawning
   from a DMT thread), or replicas could insert it at divergent positions
   and their schedules would split.  From outside the scheduler (server
   bootstrap) insertions follow deterministic program order directly. *)
let spawn t ~name body =
  let tid =
    Engine.spawn_with_tid t.eng ~name (fun () ->
        let cleanup () =
          let th = me t in
          get_turn t;
          if Engine.tracing t.eng then Engine.emit t.eng ~node:t.label Trace.Thread_exit;
          leave_runq t th;
          Tids.remove t.threads th.dtid;
          if t.last == th then t.last <- no_dthread
        in
        match body () with () -> cleanup () | exception e -> cleanup (); raise e)
  in
  let th = { dtid = tid; dname = name; parked = None; lane = current_lane t } in
  Tids.replace t.threads tid th;
  if is_thread t then begin
    (* Spawned from a registered DMT thread: schedule the insertion. *)
    get_turn t;
    let l = lane_of t th in
    l.lq <- l.lq @ [ th ];
    put_turn t
  end
  else begin
    let l = lane_of t th in
    l.lq <- l.lq @ [ th ];
    joined_outside t
  end

let run_gate t = match t.gate with Some g -> g.run () | None -> ()

(* The idle thread (§3.1): keeps the run queue non-empty and the logical
   clock ticking when all server threads block, and runs CRANE's gate so
   admissions progress while the server computes.  Each cycle is: take
   the turn, run the gate, [put_turn].  Cycles that need not block run as
   one engine spinner: its step is the rest of [put_turn] after the
   [turn_cost] sleep, then the next cycle up to the gate, and it hands
   back to this fiber wherever that cycle would block.  Without a gate,
   an idle scheduler paces itself with [idle_period] so it does not flood
   the event queue. *)
let idle_loop t =
  let th = me t in
  let step () =
    pass_turn t th;
    if t.idle_alone && t.gate = None then begin
      t.idle_resume <- Pace;
      false
    end
    else if t.stopped || not (is_head t th) then begin
      t.idle_resume <- Loop;
      false
    end
    else
      match t.gate with
      | Some g when not (g.try_run ()) ->
        t.idle_resume <- Gate;
        false
      | Some _ | None ->
        t.idle_alone <- only_one_runnable t;
        true
  in
  (* Closed form: alone in its lane, the idle thread's [pass_turn] only
     ticks the clock, and no soft-barrier timeout can fire; the gate
     says how many of its calls are pure. *)
  let ahead () =
    match (t.gate, (lane_of t th).lq, t.tick_hooks) with
    | Some g, [ h ], [] when h == th && not t.stopped -> g.ahead ()
    | _ -> 0
  in
  let skip n =
    t.clock <- t.clock + n;
    (lane_of t th).lsig <- 1;
    t.idle_alone <- only_one_runnable t;
    match t.gate with Some g -> g.skip n | None -> ()
  in
  let rec loop () =
    if not t.stopped then begin
      get_turn t;
      if t.stopped then leave_runq t th else cycle ()
    end
  and cycle () =
    run_gate t;
    t.idle_alone <- only_one_runnable t;
    Engine.spin t.eng ~period:t.turn_cost ~ahead ~skip step;
    match t.idle_resume with
    | Pace ->
      Engine.sleep t.eng t.idle_period;
      loop ()
    | Loop -> loop ()
    | Gate -> cycle ()
  in
  loop ()

let stop t = t.stopped <- true

let create ?(turn_cost = Time.ns 150) ?(idle_period = Time.us 10) ?(lanes = 1)
    eng =
  if turn_cost <= 0 then invalid_arg "Dmt.create: turn_cost must be > 0";
  let t =
    {
      eng;
      turn_cost;
      idle_period;
      lanes = Array.init (max 1 lanes) (fun _ -> { lq = []; lsig = 1 });
      waitq = Hashtbl.create 64;
      threads = Tids.create 64;
      last = no_dthread;
      clock = 0;
      next_obj = 1;
      gate = None;
      tick_hooks = [];
      stopped = false;
      label = "";
      idle_alone = false;
      idle_resume = Loop;
    }
  in
  spawn t ~name:"dmt-idle" (fun () -> idle_loop t);
  t

(* ------------------------------------------------------------------ *)
(* Pthreads wrappers (paper Figure 9). *)

module Mutex = struct
  type m = { t : t; id : Trace.sync_obj; mutable locked : bool }

  let create ?name t = { t; id = sync_obj ?name t Trace.Mutex "mutex"; locked = false }

  let lock m =
    get_turn m.t;
    run_gate m.t;
    while m.locked do
      wait m.t ~obj:m.id.obj
    done;
    m.locked <- true;
    sync m.t Trace.Acquire m.id;
    put_turn m.t

  let unlock m =
    get_turn m.t;
    if not m.locked then invalid_arg "Dmt.Mutex.unlock: not locked";
    m.locked <- false;
    sync m.t Trace.Release m.id;
    signal m.t ~obj:m.id.obj;
    put_turn m.t

  (* Relock without gate or put_turn: the tail of cond_wait. *)
  let relock_holding_turn m =
    while m.locked do
      wait m.t ~obj:m.id.obj
    done;
    m.locked <- true;
    sync m.t Trace.Acquire m.id
end

module Cond = struct
  type c = { t : t; id : Trace.sync_obj }

  let create ?name t = { t; id = sync_obj ?name t Trace.Cond "cond" }

  let wait c (mu : Mutex.m) =
    get_turn c.t;
    if not mu.Mutex.locked then invalid_arg "Dmt.Cond.wait: mutex not held";
    if Engine.tracing c.t.eng then
      Engine.emit c.t.eng ~node:c.t.label (Trace.Cond_wait { cond = c.id; mutex = mu.Mutex.id });
    mu.Mutex.locked <- false;
    sync c.t Trace.Release mu.Mutex.id;
    signal c.t ~obj:mu.Mutex.id.obj;
    wait c.t ~obj:c.id.obj;
    sync c.t Trace.Cond_woken c.id;
    Mutex.relock_holding_turn mu;
    put_turn c.t

  let signal c =
    get_turn c.t;
    sync c.t Trace.Cond_signal c.id;
    signal c.t ~obj:c.id.obj;
    put_turn c.t

  let broadcast c =
    get_turn c.t;
    sync c.t Trace.Cond_signal c.id;
    signal_all c.t ~obj:c.id.obj;
    put_turn c.t
end

module Rwlock = struct
  type rw = {
    t : t;
    id : Trace.sync_obj;
    mutable readers : int;
    mutable writer : bool;
  }

  let create ?name t =
    { t; id = sync_obj ?name t Trace.Rwlock "rwlock"; readers = 0; writer = false }

  let rdlock l =
    get_turn l.t;
    run_gate l.t;
    while l.writer do
      wait l.t ~obj:l.id.obj
    done;
    l.readers <- l.readers + 1;
    sync l.t Trace.Acquire_rd l.id;
    put_turn l.t

  let wrlock l =
    get_turn l.t;
    run_gate l.t;
    while l.writer || l.readers > 0 do
      wait l.t ~obj:l.id.obj
    done;
    l.writer <- true;
    sync l.t Trace.Acquire l.id;
    put_turn l.t

  let unlock l =
    get_turn l.t;
    if l.writer then l.writer <- false
    else if l.readers > 0 then l.readers <- l.readers - 1
    else invalid_arg "Dmt.Rwlock.unlock: not held";
    sync l.t Trace.Release l.id;
    signal_all l.t ~obj:l.id.obj;
    put_turn l.t
end

module Sem = struct
  type s = { t : t; id : Trace.sync_obj; mutable count : int }

  let create ?name t count = { t; id = sync_obj ?name t Trace.Sem "sem"; count }

  let post s =
    get_turn s.t;
    s.count <- s.count + 1;
    sync s.t Trace.Sem_post s.id;
    signal s.t ~obj:s.id.obj;
    put_turn s.t

  let wait s =
    get_turn s.t;
    run_gate s.t;
    while s.count = 0 do
      wait s.t ~obj:s.id.obj
    done;
    s.count <- s.count - 1;
    sync s.t Trace.Sem_wait s.id;
    put_turn s.t
end

module Barrier = struct
  type b = { t : t; id : Trace.sync_obj; n : int; mutable arrived : int }

  let create ?name t n = { t; id = sync_obj ?name t Trace.Barrier "barrier"; n; arrived = 0 }

  (* Same event discipline as the Pthread barrier: all "barrier_arrive"
     of a round precede every "barrier_leave", giving the sanitizer its
     all-to-all edges. *)
  let wait b =
    get_turn b.t;
    sync b.t Trace.Barrier_arrive b.id;
    b.arrived <- b.arrived + 1;
    if b.arrived >= b.n then begin
      b.arrived <- 0;
      signal_all b.t ~obj:b.id.obj;
      sync b.t Trace.Barrier_leave b.id
    end
    else begin
      wait b.t ~obj:b.id.obj;
      sync b.t Trace.Barrier_leave b.id
    end;
    put_turn b.t
end

(* ------------------------------------------------------------------ *)
(* Soft barriers (performance hints, §7.4). *)

module Soft_barrier = struct
  type sb = {
    t : t;
    n : int;
    timeout_ticks : int;
    mutable gathering : dthread list;
    mutable armed : bool;
  }

  let create t ~n ~timeout_ticks = { t; n; timeout_ticks; gathering = []; armed = false }

  (* Re-queue a gathered batch: each thread rejoins the tail of its own
     lane, and any lane whose head the insertion became (it was idle) is
     woken — in the 1-lane case that is exactly the old
     [runq <- runq @ batch; wake_head]. *)
  let requeue t batch =
    List.iter
      (fun th ->
        let l = lane_of t th in
        let was_empty = l.lq = [] in
        l.lq <- l.lq @ [ th ];
        if was_empty then wake_head t th.lane)
      batch

  let release sb =
    (match sb.gathering with
    | [] -> ()
    | batch ->
      sb.gathering <- [];
      requeue sb.t batch;
      wake_head sb.t 0);
    sb.armed <- false

  let wait sb =
    let t = sb.t in
    let th = me t in
    get_turn t;
    sb.gathering <- sb.gathering @ [ th ];
    (if List.length sb.gathering >= sb.n then begin
       (* Full house: put everybody (including us) back at the tail. *)
       let batch = sb.gathering in
       sb.gathering <- [];
       sb.armed <- false;
       leave_runq t th;
       requeue t batch;
       wake_head t th.lane;
       park t th
     end
     else begin
       if not sb.armed then begin
         sb.armed <- true;
         at_tick t (t.clock + sb.timeout_ticks) (fun () -> release sb)
       end;
       leave_runq t th;
       park t th
     end);
    (* Hand the turn over immediately, like every synchronization wrapper:
       otherwise the first released thread starts computing with the turn
       in hand and staggers the whole lined-up batch behind its first
       segment. *)
    put_turn t
end
