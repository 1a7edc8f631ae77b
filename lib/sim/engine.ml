module Trace = Crane_trace.Trace

type group = int

type thread = { tid : int; name : string; tgroup : group option }

(* [current] outside any thread: a sentinel rather than an option, so
   entering a thread allocates nothing. *)
let no_thread = { tid = -1; name = "-"; tgroup = None }

(* A thread blocked in {!spin}.  Its next step is a timed event with its
   own [(time, seq)] key, kept in [spinners] beside the heap; when the
   key comes up, [fire] (allocated once) joins the ready FIFO exactly
   where a sleeping thread's resume would, and runs one step without
   switching fibers. *)
type spinner = {
  period : Time.t;
  step : unit -> bool;
  ahead : unit -> int;
  skip : int -> unit;
  sth : thread;
  k : (unit, unit) Effect.Deep.continuation;
  mutable time : Time.t;
  mutable seq : int;
  fire : unit -> unit;
  (* Scratch for one batch: steps applied, and the last one's instant. *)
  mutable batched : int;
  mutable last : Time.t;
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  (* The event queue has two tiers that together run events in exact
     [(time, seq)] order.  [events] holds events due after the instant
     they were scheduled at.  [ready] is a FIFO ring of events scheduled
     for the current instant (waker resumes, spawns, yields): about half
     of all events, and O(1) to queue.  A heap event due now was pushed
     before the clock reached now, so it was scheduled before anything
     in [ready] and runs first.  [ready] is in schedule order already,
     so only heap events take a [seq]. *)
  events : (unit -> unit) Pheap.t;
  mutable ready : (unit -> unit) array; (* capacity is a power of two *)
  mutable ready_head : int;
  mutable ready_len : int;
  (* Armed spinners, unordered, and the index of the one with the least
     key (-1 when none): choosing the next event stays O(1) for
     everybody else. *)
  mutable spinners : spinner array;
  mutable n_spinners : int;
  mutable spin_min : int;
  mutable current : thread;
  mutable next_group : int;
  mutable next_tid : int;
  (* Bit [g] set: group [g] is dead.  Groups are sequential ints, and
     liveness is checked on every resume, waker and grouped callback. *)
  mutable dead_groups : Bytes.t;
  kill_hooks : (group, (unit -> unit) list ref) Hashtbl.t;
  mutable failed : (string * exn) list;
  mutable trace : Trace.t;
  (* Installed by the model checker to drive the fabric's controlled
     mode; [None] (the default) keeps every consumer on its RNG path. *)
  mutable sched : Sched.t option;
  mutable events_run : int;
  mutable spin_steps : int;
  mutable spin_skipped : int;
}

type 'a waker = 'a -> bool

exception Limit_exceeded

let create () =
  {
    clock = Time.zero;
    seq = 0;
    events = Pheap.create ();
    ready = Array.make 64 ignore;
    ready_head = 0;
    ready_len = 0;
    spinners = [||];
    n_spinners = 0;
    spin_min = -1;
    current = no_thread;
    next_group = 0;
    next_tid = 0;
    dead_groups = Bytes.make 8 '\000';
    kill_hooks = Hashtbl.create 16;
    failed = [];
    trace = Trace.null;
    sched = None;
    events_run = 0;
    spin_steps = 0;
    spin_skipped = 0;
  }

let now t = t.clock

let trace t = t.trace
let set_trace t tr = t.trace <- tr
let tracing t = Trace.enabled t.trace

let sched t = t.sched
let set_sched t s = t.sched <- Some s
let clear_sched t = t.sched <- None

let gid = function Some g -> g | None -> -1

let new_group t =
  let g = t.next_group in
  t.next_group <- g + 1;
  g

let group_alive t g =
  let i = g lsr 3 in
  i >= Bytes.length t.dead_groups
  || Char.code (Bytes.unsafe_get t.dead_groups i) land (1 lsl (g land 7)) = 0

let on_kill t g hook =
  match Hashtbl.find_opt t.kill_hooks g with
  | Some l -> l := hook :: !l
  | None -> Hashtbl.add t.kill_hooks g (ref [ hook ])

let kill_group t g =
  if group_alive t g then begin
    if Trace.enabled t.trace then
      Trace.record t.trace ~ts:t.clock ~tid:(-1) ~group:g (Trace.Group_kill { group = g });
    let i = g lsr 3 in
    let n = Bytes.length t.dead_groups in
    if i >= n then begin
      let b = Bytes.make (max (2 * n) (i + 1)) '\000' in
      Bytes.blit t.dead_groups 0 b 0 n;
      t.dead_groups <- b
    end;
    Bytes.set t.dead_groups i
      (Char.unsafe_chr (Char.code (Bytes.get t.dead_groups i) lor (1 lsl (g land 7))));
    match Hashtbl.find_opt t.kill_hooks g with
    | None -> ()
    | Some l ->
      let hooks = List.rev !l in
      l := [];
      List.iter (fun hook -> hook ()) hooks
  end

let alive t = function None -> true | Some g -> group_alive t g

let ready_push t fn =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let a = Array.make (2 * cap) ignore in
    for i = 0 to cap - 1 do
      a.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- a;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- fn;
  t.ready_len <- t.ready_len + 1

let ready_pop t =
  let fn = t.ready.(t.ready_head) in
  t.ready.(t.ready_head) <- ignore;
  t.ready_head <- (t.ready_head + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  fn

let schedule t ?group time fn =
  let fn = match group with
    | None -> fn
    | Some g -> fun () -> if group_alive t g then fn ()
  in
  if time <= t.clock then ready_push t fn
  else begin
    let seq = t.seq in
    t.seq <- seq + 1;
    Pheap.push t.events ~time ~seq fn
  end

let at t ?group time fn = schedule t ?group time fn
let after t ?group delay fn = schedule t ?group (t.clock + delay) fn

let fresh_seq t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let key_before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let refresh_spin_min t =
  t.spin_min <- (if t.n_spinners = 0 then -1 else 0);
  for i = 1 to t.n_spinners - 1 do
    if key_before t.spinners.(i) t.spinners.(t.spin_min) then t.spin_min <- i
  done

let arm t sp time =
  sp.time <- time;
  sp.seq <- fresh_seq t;
  let n = t.n_spinners in
  if n = Array.length t.spinners then begin
    let a = Array.make (max 4 (2 * n)) sp in
    Array.blit t.spinners 0 a 0 n;
    t.spinners <- a
  end;
  t.spinners.(n) <- sp;
  t.n_spinners <- n + 1;
  if t.spin_min < 0 || key_before sp t.spinners.(t.spin_min) then t.spin_min <- n

(* The earliest spinner's step comes up: like a sleeping thread's timer,
   it queues the resume unless the thread's group is dead. *)
let wake_spinner t =
  let i = t.spin_min in
  let sp = t.spinners.(i) in
  let n = t.n_spinners - 1 in
  t.spinners.(i) <- t.spinners.(n);
  t.n_spinners <- n;
  refresh_spin_min t;
  t.clock <- sp.time;
  if alive t sp.sth.tgroup then ready_push t sp.fire

type spin_req = {
  r_period : Time.t;
  r_step : unit -> bool;
  r_ahead : unit -> int;
  r_skip : int -> unit;
}

(* A timed suspension's timer: its heap key once armed ([tseq] is -1
   while unarmed, or when the timeout was due at once and went to the
   ready FIFO), so that the waker that wins can take it out of the
   queue. *)
type timer = { mutable fired : bool; mutable ttime : Time.t; mutable tseq : int }

type _ Effect.t +=
  | Suspend : (('a -> bool) -> unit) -> 'a Effect.t
  | Suspend_timeout : Time.t * (('a -> bool) -> unit) -> 'a option Effect.t
  | Spin : spin_req -> unit Effect.t

let blocked_begin t th =
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:t.clock ~tid:th.tid ~group:(gid th.tgroup) ~ph:Trace.Begin
      Trace.Blocked

let blocked_end t th =
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:t.clock ~tid:th.tid ~group:(gid th.tgroup) ~ph:Trace.End
      Trace.Blocked

(* One spinner step, run from the ready FIFO where the resume of
   [sleep period] would run: a step that returns [true] sleeps again, the
   first [false] hands control back to the thread, in this same event. *)
let fire t sp =
  let th = sp.sth in
  if alive t th.tgroup then begin
    blocked_end t th;
    let saved = t.current in
    t.current <- th;
    t.spin_steps <- t.spin_steps + 1;
    (match sp.step () with
    | true ->
      blocked_begin t th;
      arm t sp (t.clock + sp.period)
    | false -> Effect.Deep.continue sp.k ()
    | exception e -> Effect.Deep.discontinue sp.k e);
    t.current <- saved
  end

(* A waker won: the thread resumes with [v] in a fresh event now. *)
let resume t th k v =
  schedule t t.clock (fun () ->
      if alive t th.tgroup then begin
        blocked_end t th;
        let saved = t.current in
        t.current <- th;
        Effect.Deep.continue k v;
        t.current <- saved
      end)

let handler t th =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> t.failed <- t.failed @ [ (th.name, e) ]);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Spin r ->
          Some
            (fun (k : (a, unit) continuation) ->
              blocked_begin t th;
              let rec sp =
                { period = r.r_period; step = r.r_step; ahead = r.r_ahead;
                  skip = r.r_skip; sth = th; k; time = 0; seq = 0;
                  fire = (fun () -> fire t sp); batched = 0; last = 0 }
              in
              arm t sp (t.clock + r.r_period))
        | Suspend f ->
          Some
            (fun (k : (a, unit) continuation) ->
              blocked_begin t th;
              let fired = ref false in
              let waker v =
                if !fired || not (alive t th.tgroup) then false
                else begin
                  fired := true;
                  resume t th k v;
                  true
                end
              in
              f waker)
        | Suspend_timeout (d, f) ->
          Some
            (fun (k : (a, unit) continuation) ->
              blocked_begin t th;
              let tm = { fired = false; ttime = 0; tseq = -1 } in
              let waker v =
                if tm.fired || not (alive t th.tgroup) then false
                else begin
                  tm.fired <- true;
                  if tm.tseq >= 0 then Pheap.remove t.events ~time:tm.ttime ~seq:tm.tseq;
                  resume t th k (Some v);
                  true
                end
              in
              f waker;
              (* Armed after [f], where [after t d] at the end of [f]
                 would take its key. *)
              if not tm.fired then begin
                let expire () =
                  if (not tm.fired) && alive t th.tgroup then begin
                    tm.fired <- true;
                    resume t th k None
                  end
                in
                let time = t.clock + d in
                if time <= t.clock then ready_push t expire
                else begin
                  tm.ttime <- time;
                  tm.tseq <- fresh_seq t;
                  Pheap.push t.events ~time ~seq:tm.tseq expire
                end
              end)
        | _ -> None);
  }

let spawn_with_tid t ?group ~name body =
  let group =
    match group with
    | Some _ as g -> g
    | None -> t.current.tgroup
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = { tid; name; tgroup = group } in
  if Trace.enabled t.trace then
    Trace.record t.trace ~ts:t.clock ~tid ~group:(gid group)
      (Trace.Thread_spawn { thread = name; parent = t.current.tid });
  schedule t t.clock (fun () ->
      if alive t th.tgroup then begin
        let saved = t.current in
        t.current <- th;
        Effect.Deep.match_with body () (handler t th);
        t.current <- saved
      end);
  tid

let spawn t ?group ~name body = ignore (spawn_with_tid t ?group ~name body)

let suspend (_ : t) f = Effect.perform (Suspend f)

let suspend_timeout (_ : t) d f = Effect.perform (Suspend_timeout (d, f))

let sleep t d =
  suspend t (fun wake -> schedule t (t.clock + d) (fun () -> ignore (wake ())))

let yield t = sleep t 0

let spin (_ : t) ~period ?(ahead = fun () -> 0) ?(skip = ignore) step =
  if period <= 0 then invalid_arg "Engine.spin: period must be > 0";
  Effect.perform
    (Spin { r_period = period; r_step = step; r_ahead = ahead; r_skip = skip })

let self_tid t = t.current.tid
let self_group t = t.current.tgroup

(* Every layer's instrumentation site: the event happens now, on the
   running thread. *)
let emit t ?group ?node ?ph event =
  Trace.record t.trace ~ts:t.clock ~tid:t.current.tid ?group ?node ?ph event

(* [run ~until] below the current instant moves the clock back.  The
   ready events keep their instant, so they join the heap behind every
   heap event due then, which is where their order puts them. *)
let spill_ready t =
  while t.ready_len > 0 do
    let fn = ready_pop t in
    let seq = t.seq in
    t.seq <- seq + 1;
    Pheap.push t.events ~time:t.clock ~seq fn
  done

(* A spinner's steps strictly before instant [b]. *)
let steps_until sp b = if sp.time >= b then 0 else ((b - sp.time - 1) / sp.period) + 1

(* [time + k * period], saturating at [max_int]. *)
let step_time time k period =
  if k >= (max_int - time) / period then max_int else time + (k * period)

(* Whether batched spinner [a] re-arms before [b]: by last step, then by
   old seq.  Re-arming order matters only between spinners whose next
   steps share an instant, so with equal last steps, equal periods.  Each
   was armed for its first batched step before the batch began, which
   puts their first batched steps less than a period apart: they stepped
   in lockstep, in old-seq order, through the whole batch. *)
let rearms_before a b = a.last < b.last || (a.last = b.last && a.seq < b.seq)

(* Apply in closed form every spinner step strictly before [bound] (the
   next heap event or [run]'s stop) and before the first step some
   spinner cannot take in closed form.  Only called with the ready FIFO
   empty and the earliest spinner step before [bound], so nothing else
   could run in between, and closed-form steps of different spinners
   commute.  Returns the number of steps applied, 0 when there are none
   or they would cost more than [budget] (what is left of [run]'s limit,
   two events per step); the caller then takes the next step normally. *)
let batch t ~bound ~budget =
  let ahead sp = if alive t sp.sth.tgroup then sp.ahead () else 0 in
  let first = t.spinners.(t.spin_min) in
  let k0 = ahead first in
  if k0 = 0 then 0
  else begin
    let n = t.n_spinners in
    let bound = ref bound in
    for i = 0 to n - 1 do
      let sp = t.spinners.(i) in
      let k = if sp == first then k0 else ahead sp in
      bound := min !bound (step_time sp.time k sp.period)
    done;
    let total = ref 0 in
    for i = 0 to n - 1 do
      let sp = t.spinners.(i) in
      sp.batched <- steps_until sp !bound;
      total := if sp.batched > max_int - !total then max_int else !total + sp.batched
    done;
    if !total = 0 || !total > budget / 2 then 0
    else begin
      for i = 0 to n - 1 do
        let sp = t.spinners.(i) in
        if sp.batched > 0 then begin
          sp.skip sp.batched;
          sp.last <- sp.time + ((sp.batched - 1) * sp.period);
          sp.time <- sp.last + sp.period;
          if sp.last > t.clock then t.clock <- sp.last
        end
      done;
      (* Fresh seqs in the order the real re-arming pushes would have
         had (see [rearms_before]).  Unbatched spinners keep their older
         seqs; sort the batched ones behind them. *)
      let a = t.spinners in
      for i = 1 to n - 1 do
        let sp = a.(i) in
        let j = ref i in
        while !j > 0 && a.(!j - 1).batched > 0 && (sp.batched = 0 || rearms_before sp a.(!j - 1)) do
          a.(!j) <- a.(!j - 1);
          decr j
        done;
        a.(!j) <- sp
      done;
      for i = 0 to n - 1 do
        if a.(i).batched > 0 then a.(i).seq <- fresh_seq t
      done;
      refresh_spin_min t;
      t.spin_skipped <- t.spin_skipped + !total;
      !total
    end
  end

let run ?until ?(limit = 200_000_000) t =
  let stop = match until with Some s -> s | None -> max_int in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let heap_time = Pheap.min_time t.events in
    (* The next timed event is the earliest heap event or spinner step. *)
    let spin_next =
      t.spin_min >= 0
      &&
      let sp = t.spinners.(t.spin_min) in
      sp.time < heap_time || (sp.time = heap_time && sp.seq < Pheap.min_seq t.events)
    in
    let timed = if spin_next then t.spinners.(t.spin_min).time else heap_time in
    let timed_now = timed = t.clock && (spin_next || not (Pheap.is_empty t.events)) in
    if t.ready_len = 0 && Pheap.is_empty t.events && t.spin_min < 0 then continue_ := false
    else if (if t.ready_len > 0 then t.clock else timed) > stop then begin
      spill_ready t;
      t.clock <- stop;
      continue_ := false
    end
    else begin
      let batched =
        if
          t.ready_len = 0 && spin_next && timed < heap_time && timed < stop
          && not (Trace.enabled t.trace)
        then batch t ~bound:(min heap_time stop) ~budget:(limit - !steps)
        else 0
      in
      if batched > 0 then steps := !steps + (2 * batched)
      else begin
        incr steps;
        if !steps > limit then raise Limit_exceeded;
        t.events_run <- t.events_run + 1;
        if t.ready_len > 0 && not timed_now then (ready_pop t) ()
        else if spin_next then wake_spinner t
        else begin
          t.clock <- heap_time;
          (Pheap.pop_min t.events) ()
        end
      end
    end
  done

let failures t = t.failed
let pending_events t = Pheap.length t.events + t.ready_len + t.n_spinners

type stats = { events_run : int; spin_steps : int; spin_skipped : int }

let stats (t : t) =
  { events_run = t.events_run; spin_steps = t.spin_steps; spin_skipped = t.spin_skipped }
