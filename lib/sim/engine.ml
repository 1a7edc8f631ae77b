module Trace = Crane_trace.Trace

type group = int

type thread = { tid : int; name : string; tgroup : group option }

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
  mutable current : thread option;
  mutable next_group : int;
  mutable next_tid : int;
  dead_groups : (group, unit) Hashtbl.t;
  kill_hooks : (group, (unit -> unit) list ref) Hashtbl.t;
  mutable failed : (string * exn) list;
  mutable trace : Trace.t;
  (* Installed by the model checker to drive the fabric's controlled
     mode; [None] (the default) keeps every consumer on its RNG path. *)
  mutable sched : Sched.t option;
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
    current = None;
    next_group = 0;
    next_tid = 0;
    dead_groups = Hashtbl.create 16;
    kill_hooks = Hashtbl.create 16;
    failed = [];
    trace = Trace.null;
    sched = None;
  }

let now t = t.clock

let trace t = t.trace
let set_trace t tr = t.trace <- tr

let sched t = t.sched
let set_sched t s = t.sched <- Some s
let clear_sched t = t.sched <- None

let gid = function Some g -> g | None -> -1

let new_group t =
  let g = t.next_group in
  t.next_group <- g + 1;
  g

let group_alive t g = not (Hashtbl.mem t.dead_groups g)

let on_kill t g hook =
  match Hashtbl.find_opt t.kill_hooks g with
  | Some l -> l := hook :: !l
  | None -> Hashtbl.add t.kill_hooks g (ref [ hook ])

let kill_group t g =
  if group_alive t g then begin
    if Trace.enabled t.trace then
      Trace.instant t.trace ~ts:t.clock ~tid:(-1) ~group:g ~cat:"sim"
        ~name:"group_kill" [ ("group", Trace.Int g) ];
    Hashtbl.add t.dead_groups g ();
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

let timer t ?group delay fn =
  let cancelled = ref false in
  schedule t ?group (t.clock + delay) (fun () -> if not !cancelled then fn ());
  fun () -> cancelled := true

type _ Effect.t += Suspend : (('a -> bool) -> unit) -> 'a Effect.t

let handler t th =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> t.failed <- t.failed @ [ (th.name, e) ]);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend f ->
          Some
            (fun (k : (a, unit) continuation) ->
              if Trace.enabled t.trace then
                Trace.span_begin t.trace ~ts:t.clock ~tid:th.tid
                  ~group:(gid th.tgroup) ~cat:"sim" ~name:"blocked" [];
              let fired = ref false in
              let waker v =
                if !fired || not (alive t th.tgroup) then false
                else begin
                  fired := true;
                  schedule t t.clock (fun () ->
                      if alive t th.tgroup then begin
                        if Trace.enabled t.trace then
                          Trace.span_end t.trace ~ts:t.clock ~tid:th.tid
                            ~group:(gid th.tgroup) ~cat:"sim" ~name:"blocked" [];
                        let saved = t.current in
                        t.current <- Some th;
                        continue k v;
                        t.current <- saved
                      end);
                  true
                end
              in
              f waker)
        | _ -> None);
  }

let spawn_with_tid t ?group ~name body =
  let group =
    match group with
    | Some _ as g -> g
    | None -> (match t.current with Some th -> th.tgroup | None -> None)
  in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = { tid; name; tgroup = group } in
  if Trace.enabled t.trace then begin
    let parent = match t.current with Some th -> th.tid | None -> -1 in
    Trace.instant t.trace ~ts:t.clock ~tid ~group:(gid group) ~cat:"sim"
      ~name:"thread_spawn"
      [ ("thread", Trace.Str name); ("parent", Trace.Int parent) ]
  end;
  schedule t t.clock (fun () ->
      if alive t th.tgroup then begin
        let saved = t.current in
        t.current <- Some th;
        Effect.Deep.match_with body () (handler t th);
        t.current <- saved
      end);
  tid

let spawn t ?group ~name body = ignore (spawn_with_tid t ?group ~name body)

let suspend (_ : t) f = Effect.perform (Suspend f)

let sleep t d =
  suspend t (fun wake -> schedule t (t.clock + d) (fun () -> ignore (wake ())))

let yield t = sleep t 0

let self_name t = match t.current with Some th -> th.name | None -> "-"
let self_tid t = match t.current with Some th -> th.tid | None -> -1
let self_group t = match t.current with Some th -> th.tgroup | None -> None

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

let run ?until ?(limit = 200_000_000) t =
  let stop = match until with Some s -> s | None -> max_int in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let heap_time = Pheap.min_time t.events in
    let heap_now = heap_time = t.clock && not (Pheap.is_empty t.events) in
    if t.ready_len = 0 && Pheap.is_empty t.events then continue_ := false
    else if (if t.ready_len > 0 then t.clock else heap_time) > stop then begin
      spill_ready t;
      t.clock <- stop;
      continue_ := false
    end
    else begin
      incr steps;
      if !steps > limit then raise Limit_exceeded;
      if t.ready_len > 0 && not heap_now then (ready_pop t) ()
      else begin
        t.clock <- heap_time;
        (Pheap.pop_min t.events) ()
      end
    end
  done

let failures t = t.failed
let pending_events t = Pheap.length t.events + t.ready_len
