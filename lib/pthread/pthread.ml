module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Trace = Crane_trace.Trace

(* The cost model: an uncontended operation is cheap (fast-path
   lock/unlock); blocking and being woken costs a context switch
   (futex-style) plus OS wake-to-run latency, a uniform random delay in
   [0, wake_jitter) — the scheduler noise that makes contended Pthreads
   runs slow and nondeterministic. *)
let uncontended = Time.ns 60
let context_switch = Time.ns 1500
let wake_jitter = Time.us 150

type t = { eng : Engine.t; rng : Rng.t; mutable next_obj : int }

(* Object ids start at 1: id 0 is reserved for the DMT scheduler's turn
   pseudo-lock, so sanitizer reports use one id space per process across
   both runtimes. *)
let create eng rng = { eng; rng; next_obj = 1 }
let engine t = t.eng

(* A fresh synchronization object, labelled [name] or "<kind>#<id>". *)
let sync_obj ?name rt kind prefix =
  let obj = rt.next_obj in
  rt.next_obj <- obj + 1;
  let label = match name with Some n -> n | None -> Printf.sprintf "%s#%d" prefix obj in
  { Trace.obj; kind; label }

(* Sanitizer hook: every synchronization operation streams a sync event
   through the engine's flight recorder.  One branch when tracing is off. *)
let ev rt event =
  Engine.emit rt.eng
    ~group:(match Engine.self_group rt.eng with Some g -> g | None -> -1)
    event

let sync rt op o = if Engine.tracing rt.eng then ev rt (Trace.Sync (op, o))

(* A wait set with randomized wake order: the OS scheduler model. *)
module Waitset = struct
  type w = { rt : t; mutable waiters : (unit -> bool) list }

  let create rt = { rt; waiters = [] }

  let park w =
    Engine.suspend w.rt.eng (fun wake -> w.waiters <- w.waiters @ [ wake ]);
    (* Charge the wake-up half of the context switch, plus OS scheduling
       latency (wake-to-run delay on a loaded machine). *)
    Engine.sleep w.rt.eng (context_switch + Rng.int w.rt.rng wake_jitter)

  (* Wake one waiter chosen at random; returns false when none was woken. *)
  let rec wake_one w =
    match w.waiters with
    | [] -> false
    | waiters ->
      let i = Rng.int w.rt.rng (List.length waiters) in
      let chosen = List.nth waiters i in
      w.waiters <- List.filteri (fun j _ -> j <> i) waiters;
      if chosen () then true else wake_one w

  let wake_all w =
    let all = w.waiters in
    w.waiters <- [];
    List.iter (fun wake -> ignore (wake ())) (Rng.shuffle w.rt.rng all)
end

let charge_fast rt = Engine.sleep rt.eng uncontended

module Mutex = struct
  type m = { rt : t; id : Trace.sync_obj; mutable owner : int option; ws : Waitset.w }

  let create ?name rt =
    { rt; id = sync_obj ?name rt Trace.Mutex "mutex"; owner = None; ws = Waitset.create rt }

  let locked m = m.owner <> None

  let rec lock m =
    charge_fast m.rt;
    if locked m then begin
      Waitset.park m.ws;
      lock m
    end
    else begin
      m.owner <- Some (Engine.self_tid m.rt.eng);
      sync m.rt Trace.Acquire m.id
    end

  let unlock m =
    (match m.owner with
    | None -> invalid_arg "Pthread.Mutex.unlock: not locked"
    | Some tid when tid <> Engine.self_tid m.rt.eng ->
      invalid_arg
        (Printf.sprintf "Pthread.Mutex.unlock: %s held by thread %d, unlocked by %d"
           m.id.label tid (Engine.self_tid m.rt.eng))
    | Some _ -> ());
    charge_fast m.rt;
    m.owner <- None;
    sync m.rt Trace.Release m.id;
    ignore (Waitset.wake_one m.ws)
end

module Cond = struct
  type c = { rt : t; id : Trace.sync_obj; ws : Waitset.w }

  let create ?name rt = { rt; id = sync_obj ?name rt Trace.Cond "cond"; ws = Waitset.create rt }

  let wait c (mu : Mutex.m) =
    charge_fast c.rt;
    if Engine.tracing c.rt.eng then
      ev c.rt (Trace.Cond_wait { cond = c.id; mutex = mu.Mutex.id });
    Mutex.unlock mu;
    Waitset.park c.ws;
    sync c.rt Trace.Cond_woken c.id;
    Mutex.lock mu

  let signal c =
    charge_fast c.rt;
    sync c.rt Trace.Cond_signal c.id;
    ignore (Waitset.wake_one c.ws)

  let broadcast c =
    charge_fast c.rt;
    sync c.rt Trace.Cond_signal c.id;
    Waitset.wake_all c.ws
end

module Rwlock = struct
  type rw = {
    rt : t;
    id : Trace.sync_obj;
    mutable readers : int;
    mutable writer : bool;
    ws : Waitset.w;
  }

  let create ?name rt =
    { rt; id = sync_obj ?name rt Trace.Rwlock "rwlock"; readers = 0; writer = false;
      ws = Waitset.create rt }

  let rec rdlock l =
    charge_fast l.rt;
    if l.writer then begin
      Waitset.park l.ws;
      rdlock l
    end
    else begin
      l.readers <- l.readers + 1;
      sync l.rt Trace.Acquire_rd l.id
    end

  let rec wrlock l =
    charge_fast l.rt;
    if l.writer || l.readers > 0 then begin
      Waitset.park l.ws;
      wrlock l
    end
    else begin
      l.writer <- true;
      sync l.rt Trace.Acquire l.id
    end

  let unlock l =
    charge_fast l.rt;
    if l.writer then l.writer <- false
    else if l.readers > 0 then l.readers <- l.readers - 1
    else invalid_arg "Pthread.Rwlock.unlock: not held";
    sync l.rt Trace.Release l.id;
    Waitset.wake_all l.ws
end

module Sem = struct
  type s = { rt : t; id : Trace.sync_obj; mutable count : int; ws : Waitset.w }

  let create ?name rt count =
    { rt; id = sync_obj ?name rt Trace.Sem "sem"; count; ws = Waitset.create rt }

  let post s =
    charge_fast s.rt;
    s.count <- s.count + 1;
    sync s.rt Trace.Sem_post s.id;
    ignore (Waitset.wake_one s.ws)

  let rec wait s =
    charge_fast s.rt;
    if s.count > 0 then begin
      s.count <- s.count - 1;
      sync s.rt Trace.Sem_wait s.id
    end
    else begin
      Waitset.park s.ws;
      wait s
    end
end

module Barrier = struct
  type b = { rt : t; id : Trace.sync_obj; n : int; mutable arrived : int; ws : Waitset.w }

  let create ?name rt n =
    { rt; id = sync_obj ?name rt Trace.Barrier "barrier"; n; arrived = 0; ws = Waitset.create rt }

  (* All "barrier_arrive" events of a round precede every "barrier_leave":
     waiters emit arrive before parking, and the releasing thread emits its
     own leave only after the round is complete. *)
  let wait b =
    charge_fast b.rt;
    sync b.rt Trace.Barrier_arrive b.id;
    b.arrived <- b.arrived + 1;
    if b.arrived >= b.n then begin
      b.arrived <- 0;
      Waitset.wake_all b.ws;
      sync b.rt Trace.Barrier_leave b.id
    end
    else begin
      Waitset.park b.ws;
      sync b.rt Trace.Barrier_leave b.id
    end
end

(* Joinable threads: pthread_create/pthread_join with exit -> join
   happens-before edges for the sanitizer.  (Thread creation edges come
   from the engine's own "thread_spawn" event, which records the parent.) *)
type thread = { trt : t; mutable ttid : int; mutable finished : bool; tws : Waitset.w }

let spawn rt ~name body =
  let th = { trt = rt; ttid = -1; finished = false; tws = Waitset.create rt } in
  let tid =
    Engine.spawn_with_tid rt.eng ~name (fun () ->
        let finish () =
          if Engine.tracing rt.eng then ev rt Trace.Thread_exit;
          th.finished <- true;
          Waitset.wake_all th.tws
        in
        match body () with
        | () -> finish ()
        | exception e ->
          finish ();
          raise e)
  in
  th.ttid <- tid;
  th

let join th =
  while not th.finished do
    Waitset.park th.tws
  done;
  if Engine.tracing th.trt.eng then ev th.trt (Trace.Thread_join { joined = th.ttid })
