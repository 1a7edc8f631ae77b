(** The happens-before monitor: a streaming consumer of the flight
    recorder that runs three analyses over one execution.

    {b Race detection} (FastTrack-style): every thread carries a vector
    clock; synchronization objects carry the clock of their last
    release-side operation.  Monitored memory cells keep the epoch of the
    last write and the last read per thread; an access that is not
    covered by the accessor's clock is a data race, reported with both
    access contexts (thread, locks held, recent synchronization path).

    {b Lock-order lint}: acquiring [l2] while holding [l1] records the
    edge [l1 -> l2]; cycles in the resulting graph (Tarjan SCCs) are
    potential deadlocks even when the runs that witnessed the edges never
    overlapped.  Waiting on a condition variable while holding a second
    lock besides the one being released is flagged separately.

    {b Digests}: a {e full} digest chains every event including
    timestamps (two same-seed replays must match byte for byte), and a
    {e schedule} digest chains only the synchronization/memory order
    without timestamps — the object the determinism certifier compares
    across seeds.

    Edge vocabulary per primitive: mutex release -> next acquire; rwlock
    release -> next acquire (reader edges overapproximated); sem post ->
    wait; every barrier arrive -> every leave of the round; cond signal
    -> woken (overapproximated: any earlier signal orders any later
    wake-up); thread spawn -> child start; thread exit -> join; DMT turn
    release -> next turn acquire (object 0, exempt from the lint). *)

module Trace = Crane_trace.Trace

type access = {
  a_thread : string;
  a_ts : int;  (** virtual ns *)
  a_op : string;  (** "read" | "write" *)
  a_locks : string list;  (** labels of locks held at the access *)
  a_path : string list;  (** recent sync operations, newest first *)
}

type race = {
  r_site : string;
  r_loc : int;
  r_kind : string;  (** "write-write" | "read-write" | "write-read" *)
  r_first : access;
  r_second : access;
}

type inversion = {
  i_locks : string list;  (** labels of the locks on the cycle, sorted *)
  i_edges : (string * string * string) list;
      (** (held, acquired, witness thread), in discovery order *)
}

type cond_hold = { c_cond : string; c_extra : string; c_thread : string }

type thread_state = {
  mutable vc : Vc.t;
  mutable held : (int * string * string) list;  (** obj, label, mode *)
  mutable path : string list;
  mutable tname : string;
}

type cell_state = {
  site : string;
  mutable wr : (int * int * access) option;  (** writer tid, clock, context *)
  mutable rds : (int * (int * access)) list;  (** reader tid -> clock, context *)
}

type t = {
  threads : (int, thread_state) Hashtbl.t;
  objs : (int, Vc.t ref) Hashtbl.t;
  obj_labels : (int, string) Hashtbl.t;
  exits : (int, Vc.t) Hashtbl.t;
  cells : (int, cell_state) Hashtbl.t;
  edge_seen : (int * int, unit) Hashtbl.t;
  mutable edges : ((int * int) * (string * string * string)) list;  (** newest first *)
  mutable races : race list;  (** newest first *)
  race_seen : (string, unit) Hashtbl.t;
  mutable cond_holds : cond_hold list;  (** newest first *)
  cond_seen : (string, unit) Hashtbl.t;
  mutable full_digest : string;
  mutable sched_digest : string;
  mutable sync_events : int;
  mutable mem_events : int;
}

type report = {
  races : race list;  (** discovery order *)
  inversions : inversion list;
  cond_holds : cond_hold list;
  schedule_digest : string;
  full_digest : string;
  sync_events : int;
  mem_events : int;
}

let create () =
  {
    threads = Hashtbl.create 64;
    objs = Hashtbl.create 64;
    obj_labels = Hashtbl.create 64;
    exits = Hashtbl.create 64;
    cells = Hashtbl.create 64;
    edge_seen = Hashtbl.create 64;
    edges = [];
    races = [];
    race_seen = Hashtbl.create 16;
    cond_holds = [];
    cond_seen = Hashtbl.create 16;
    full_digest = Digest.to_hex (Digest.string "crane-san");
    sched_digest = Digest.to_hex (Digest.string "crane-san");
    sync_events = 0;
    mem_events = 0;
  }

let thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some st -> st
  | None ->
    let st =
      {
        vc = Vc.tick Vc.empty tid;
        held = [];
        path = [];
        tname = (if tid < 0 then "boot" else Printf.sprintf "tid%d" tid);
      }
    in
    Hashtbl.add t.threads tid st;
    st

let obj_vc t o =
  match Hashtbl.find_opt t.objs o with
  | Some r -> r
  | None ->
    let r = ref Vc.empty in
    Hashtbl.add t.objs o r;
    r

let cell t loc site =
  match Hashtbl.find_opt t.cells loc with
  | Some c -> c
  | None ->
    let c = { site; wr = None; rds = [] } in
    Hashtbl.add t.cells loc c;
    c

let path_limit = 4

let push_path st entry =
  st.path <-
    entry :: (if List.length st.path >= path_limit then List.filteri (fun i _ -> i < path_limit - 1) st.path else st.path)

let chain digest line = Digest.to_hex (Digest.string (digest ^ "\n" ^ line))

let report_race t c ~loc ~kind first second =
  let key =
    Printf.sprintf "%d|%s|%s|%s" loc kind
      (min first.a_thread second.a_thread)
      (max first.a_thread second.a_thread)
  in
  if not (Hashtbl.mem t.race_seen key) then begin
    Hashtbl.add t.race_seen key ();
    t.races <-
      { r_site = c.site; r_loc = loc; r_kind = kind; r_first = first; r_second = second }
      :: t.races
  end

let sync_event (t : t) (ev : Trace.ev) =
  t.sync_events <- t.sync_events + 1;
  let st = thread t ev.tid in
  let _, name, _ = Trace.describe ev in
  (* Every operation enters the schedule digest; one on an object also
     names the object and records its label. *)
  (match ev.event with
  | Trace.Sync (_, o) | Trace.Cond_wait { cond = o; _ } ->
    if o.label <> "" && not (Hashtbl.mem t.obj_labels o.obj) then
      Hashtbl.add t.obj_labels o.obj o.label;
    t.sched_digest <-
      chain t.sched_digest (Printf.sprintf "%s|%s|%d|%s" name st.tname o.obj o.label)
  | _ -> t.sched_digest <- chain t.sched_digest (Printf.sprintf "%s|%s" name st.tname));
  let release_side (o : Trace.sync_obj) =
    let r = obj_vc t o.obj in
    r := Vc.join !r st.vc;
    st.vc <- Vc.tick st.vc ev.tid
  in
  match ev.event with
  | Trace.Sync (((Trace.Acquire | Trace.Acquire_rd) as op), o) ->
    st.vc <- Vc.join st.vc !(obj_vc t o.obj);
    if o.kind <> Trace.Turn then begin
      List.iter
        (fun (o1, l1, _) ->
          if o1 <> o.obj && not (Hashtbl.mem t.edge_seen (o1, o.obj)) then begin
            Hashtbl.add t.edge_seen (o1, o.obj) ();
            t.edges <- ((o1, o.obj), (l1, o.label, st.tname)) :: t.edges
          end)
        st.held;
      st.held <- (o.obj, o.label, (if op = Trace.Acquire_rd then "rd" else "wr")) :: st.held;
      push_path st (Printf.sprintf "%s(%s)@%d" name o.label ev.ts)
    end
  | Trace.Sync (Trace.Release, o) ->
    release_side o;
    if o.kind <> Trace.Turn then begin
      (* drop the innermost held entry for this object *)
      let rec drop = function
        | [] -> []
        | (x, _, _) :: rest when x = o.obj -> rest
        | h :: rest -> h :: drop rest
      in
      st.held <- drop st.held;
      push_path st (Printf.sprintf "release(%s)@%d" o.label ev.ts)
    end
  | Trace.Cond_wait { cond; mutex } ->
    List.iter
      (fun (o, l, _) ->
        if o <> mutex.obj then begin
          let key = Printf.sprintf "%d|%d|%s" cond.obj o st.tname in
          if not (Hashtbl.mem t.cond_seen key) then begin
            Hashtbl.add t.cond_seen key ();
            t.cond_holds <-
              { c_cond = cond.label; c_extra = l; c_thread = st.tname } :: t.cond_holds
          end
        end)
      st.held;
    push_path st (Printf.sprintf "cond_wait(%s)@%d" cond.label ev.ts)
  | Trace.Sync ((Trace.Cond_signal | Trace.Sem_post | Trace.Barrier_arrive), o) ->
    release_side o;
    push_path st (Printf.sprintf "%s(%s)@%d" name o.label ev.ts)
  | Trace.Sync ((Trace.Cond_woken | Trace.Sem_wait | Trace.Barrier_leave), o) ->
    st.vc <- Vc.join st.vc !(obj_vc t o.obj);
    push_path st (Printf.sprintf "%s(%s)@%d" name o.label ev.ts)
  | Trace.Thread_exit ->
    Hashtbl.replace t.exits ev.tid st.vc;
    st.vc <- Vc.tick st.vc ev.tid
  | Trace.Thread_join { joined } -> (
    match Hashtbl.find_opt t.exits joined with
    | Some v -> st.vc <- Vc.join st.vc v
    | None -> ())
  | _ -> ()

let mem_event (t : t) (ev : Trace.ev) ~write ~loc ~site =
  t.mem_events <- t.mem_events + 1;
  let op = if write then "write" else "read" in
  let st = thread t ev.tid in
  t.sched_digest <-
    chain t.sched_digest (Printf.sprintf "%s|%s|%d|%s" op st.tname loc site);
  let c = cell t loc site in
  let info =
    {
      a_thread = st.tname;
      a_ts = ev.ts;
      a_op = op;
      a_locks = List.rev_map (fun (_, l, _) -> l) st.held;
      a_path = st.path;
    }
  in
  let clock = Vc.get st.vc ev.tid in
  (match c.wr with
  | Some (wt, wc, winfo) when wt <> ev.tid && not (Vc.covers st.vc ~tid:wt ~clock:wc) ->
    report_race t c ~loc ~kind:(if write then "write-write" else "write-read") winfo info
  | _ -> ());
  if write then begin
    List.iter
      (fun (rt, (rc, rinfo)) ->
        if rt <> ev.tid && not (Vc.covers st.vc ~tid:rt ~clock:rc) then
          report_race t c ~loc ~kind:"read-write" rinfo info)
      c.rds;
    c.wr <- Some (ev.tid, clock, info);
    c.rds <- []
  end
  else c.rds <- (ev.tid, (clock, info)) :: List.remove_assoc ev.tid c.rds

let on_event (t : t) tr (ev : Trace.ev) =
  t.full_digest <- chain t.full_digest (Trace.jsonl_line tr ev);
  match ev.event with
  | Trace.Thread_spawn { thread = name; parent } ->
    let child = ev.tid in
    let cst = thread t child in
    if name <> "" then cst.tname <- name;
    t.sched_digest <- chain t.sched_digest (Printf.sprintf "spawn|%s" cst.tname);
    if parent <> child then begin
      let pst = thread t parent in
      cst.vc <- Vc.tick (Vc.join cst.vc pst.vc) child;
      pst.vc <- Vc.tick pst.vc parent
    end
  | Trace.Sync _ | Trace.Cond_wait _ | Trace.Thread_exit | Trace.Thread_join _ ->
    sync_event t ev
  | Trace.Mem { write; loc; site } -> mem_event t ev ~write ~loc ~site
  | _ -> ()

let attach t tr = Trace.add_sink tr (on_event t tr)


(* ------------------------------------------------------------------ *)
(* Lock-order cycles: Tarjan SCCs over the acquisition-order graph, in
   deterministic (sorted node) order.  Any SCC with more than one node
   contains a cycle — a potential deadlock, even if the witnessing
   executions never overlapped in time. *)

let inversions_of (t : t) =
  let edges = List.rev t.edges in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun ((a, b), _) ->
      Hashtbl.replace nodes a ();
      Hashtbl.replace nodes b ())
    edges;
  let node_list = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) nodes []) in
  let succs n =
    List.filter_map (fun ((a, b), _) -> if a = n then Some b else None) edges
  in
  let index = Hashtbl.create 16
  and lowlink = Hashtbl.create 16
  and on_stack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      if List.length scc > 1 then sccs := scc :: !sccs
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) node_list;
  List.rev_map
    (fun scc ->
      let in_scc n = List.mem n scc in
      let label n =
        match Hashtbl.find_opt t.obj_labels n with
        | Some l -> l
        | None -> Printf.sprintf "obj%d" n
      in
      {
        i_locks = List.sort compare (List.map label scc);
        i_edges =
          List.filter_map
            (fun ((a, b), (la, lb, th)) ->
              if in_scc a && in_scc b then Some (la, lb, th) else None)
            edges;
      })
    !sccs

let report (t : t) =
  {
    races = List.rev t.races;
    inversions = inversions_of t;
    cond_holds = List.rev t.cond_holds;
    schedule_digest = t.sched_digest;
    full_digest = t.full_digest;
    sync_events = t.sync_events;
    mem_events = t.mem_events;
  }
