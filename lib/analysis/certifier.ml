(** Crane-San's conflict-serializability certifier for dependency-aware
    parallel delivery.

    The pool-mode gate admits footprint-disjoint committed commands
    concurrently, so the execution is no longer literally serial in log
    order — the property the rest of Crane-San leans on.  This module
    follows a flight-recorder event stream and proves the parallel schedule
    {e equivalent} to serial index order: for every shared location, the
    trace order of conflicting accesses (at least one write) must agree
    with consensus-index order.  If it does, the parallel execution's
    effect on every location equals the serial one's, and replicas
    running different pool widths converge to the same state.

    Evidence comes from three event families the runtimes already emit:

    - [exec] begin/end instants bracket each worker's execute window and
      carry the consensus index being executed (the vhost's pool-mode
      recv/close wrappers);
    - [mem] read/write instants are monitored-cell accesses (location =
      cell id);
    - [sync] acquire / acquire_rd instants of kind [mutex] / [rwlock]
      are lock-footprint accesses: taking a mutex is a write on the lock
      (its order is the order of the critical sections), a read-lock is
      a read.  Turn pseudo-locks, condvars, semaphores and barriers are
      scheduler fabric, not state, and are excluded.

    Events outside any execute window (gate, proxy, listener threads,
    checkpoint harvests) are not part of a command and are skipped.
    Locations touched by a single thread across the whole trace are
    thread-confined (per-worker arenas, sharded counters): they cannot
    order two concurrent commands and are exempt.

    The check is deliberately stricter than cycle detection: it demands
    per-location trace order {e equal} to index order, which is exactly
    what the admission rule promises (a command never overtakes a
    conflicting lower-index one), so any violation is an admission bug. *)

module Trace = Crane_trace.Trace

type violation = {
  v_node : string;
  v_loc : string;  (** "cell:<site>" or "lock:<label>" *)
  v_kind : string;  (** "write-write" | "read-write" | "write-read" *)
  v_early_index : int;  (** the later-in-trace, lower-in-log command *)
  v_late_index : int;  (** the earlier-in-trace, higher-in-log command *)
  v_ts : int;  (** virtual ns of the offending access *)
}

type report = {
  windows : int;  (** execute windows seen *)
  commands : int;  (** distinct consensus indices windowed *)
  in_window_events : int;  (** accesses attributed to some command *)
  locations : int;  (** shared locations checked *)
  confined : int;  (** thread-confined locations, exempt *)
  violations : violation list;  (** discovery order *)
}

let certified (r : report) = r.violations = []

(* One access extracted from the stream: the (node, location) it touches,
   whether it writes, and the command (index) it belongs to. *)
type access = {
  node : string;
  loc : string;
  write : bool;
  index : int;
  tid : int;
  ts : int;
}

let classify (ev : Trace.ev) =
  match ev.event with
  | Trace.Mem { write; loc; site } -> Some (Printf.sprintf "cell:%d:%s" loc site, write)
  | Trace.Sync
      (((Trace.Acquire | Trace.Acquire_rd) as op), { obj; kind = Trace.Mutex | Trace.Rwlock; label })
    ->
    Some (Printf.sprintf "lock:%d:%s" obj label, op = Trace.Acquire)
  | _ -> None (* turn pseudo-locks and scheduler fabric *)

(* The streaming state: pass 1, collecting in-window accesses in trace
   order as the events arrive. *)
type t = {
  resolve_node : Trace.ev -> string;
  open_window : (string * int, int) Hashtbl.t;  (** (node, tid) -> index *)
  mutable windows : int;
  indices : (int, unit) Hashtbl.t;
  mutable accesses : access list;  (** newest first *)
}

let create ~resolve_node =
  {
    resolve_node;
    open_window = Hashtbl.create 64;
    windows = 0;
    indices = Hashtbl.create 256;
    accesses = [];
  }

let ingest st (ev : Trace.ev) =
  let node = st.resolve_node ev in
  match ev.event with
  | Trace.Exec_begin { index; _ } ->
    st.windows <- st.windows + 1;
    Hashtbl.replace st.indices index ();
    Hashtbl.replace st.open_window (node, ev.tid) index
  | Trace.Exec_end _ -> Hashtbl.remove st.open_window (node, ev.tid)
  | _ -> (
    match Hashtbl.find_opt st.open_window (node, ev.tid) with
    | None -> ()
    | Some index -> (
      match classify ev with
      | Some (loc, write) ->
        st.accesses <- { node; loc; write; index; tid = ev.tid; ts = ev.ts } :: st.accesses
      | None -> ()))

let attach tr =
  let st = create ~resolve_node:(Trace.resolve_node tr) in
  Trace.add_sink tr (ingest st);
  st

let report st =
  let accesses = List.rev st.accesses in
  (* Pass 2: thread confinement per (node, location). *)
  let touched_by : (string * string, int) Hashtbl.t = Hashtbl.create 256 in
  let shared : (string * string, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun a ->
      let k = (a.node, a.loc) in
      match Hashtbl.find_opt touched_by k with
      | None -> Hashtbl.replace touched_by k a.tid
      | Some tid when tid = a.tid -> ()
      | Some _ -> Hashtbl.replace shared k ())
    accesses;
  (* Pass 3: per shared location, trace order must follow index order. *)
  let hiw : (string * string, int * int) Hashtbl.t = Hashtbl.create 256 in
  (* location -> (max index that wrote, max index that read) so far *)
  let violations = ref [] in
  List.iter
    (fun a ->
      let k = (a.node, a.loc) in
      if Hashtbl.mem shared k then begin
        let wmax, rmax =
          Option.value (Hashtbl.find_opt hiw k) ~default:(0, 0)
        in
        let bad kind early =
          violations :=
            {
              v_node = a.node;
              v_loc = a.loc;
              v_kind = kind;
              v_early_index = a.index;
              v_late_index = early;
              v_ts = a.ts;
            }
            :: !violations
        in
        if a.write then begin
          if a.index < wmax then bad "write-write" wmax
          else if a.index < rmax then bad "read-write" rmax;
          Hashtbl.replace hiw k (max wmax a.index, rmax)
        end
        else begin
          if a.index < wmax then bad "write-read" wmax;
          Hashtbl.replace hiw k (wmax, max rmax a.index)
        end
      end)
    accesses;
  {
    windows = st.windows;
    commands = Hashtbl.length st.indices;
    in_window_events = List.length accesses;
    locations = Hashtbl.length touched_by;
    confined = Hashtbl.length touched_by - Hashtbl.length shared;
    violations = List.rev !violations;
  }

let render (r : report) =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "certifier: %d execute windows over %d commands, %d in-window accesses\n"
    r.windows r.commands r.in_window_events;
  Printf.bprintf b
    "locations: %d checked (%d thread-confined, exempt)\n" r.locations
    r.confined;
  (match r.violations with
  (* An empty-window run proves nothing: without a single execute window
     no access was ever checked, so "no violations" must not read as a
     positive certification. *)
  | [] when r.windows = 0 ->
    Buffer.add_string b "vacuously certified (no execute windows).\n"
  | [] -> Buffer.add_string b "conflict-serializable in log-index order.\n"
  | vs ->
    Printf.bprintf b "%d ORDER VIOLATION(S):\n" (List.length vs);
    List.iter
      (fun v ->
        Printf.bprintf b
          "  %s %s on %s: command %d executed after command %d (@%dns)\n"
          v.v_node v.v_kind v.v_loc v.v_early_index v.v_late_index v.v_ts)
      vs);
  Buffer.contents b
