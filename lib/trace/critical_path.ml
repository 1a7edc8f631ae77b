(** Critical-path analysis over request spans (the latency-attribution
    layer of the flight recorder).

    Every committed client call leaves a causal chain of events in the
    trace, keyed by its global consensus index (the trace id assigned at
    the proxy):

    {v
    net.rx_*  ->  req.proposed  ->  req.fsync_done  ->  paxos.commit
        (arrival)    (proxy flush)     (WAL durable)      (quorum)
              ->  seq.admit  ->  req.reply  ->  net.rx_data
                 (DMT admits)    (server send)   (client receives)
    v}

    One pass over the event stream ([attach] to a live recorder, or
    [analyze] to replay a retained one) collects those chains, and
    [report] decomposes each commit's end-to-end latency into named
    stages:

    - [client_queue] — bytes arrived at the proxy until the proxy turned
      them into a proposal-eligible event (socket buffering, proxy rx loop
      scheduling);
    - [batch_wait] — sat in the proxy batch buffer awaiting flush;
    - [fsync] — proposal until the primary's WAL group fsync covering the
      index was durable (clamped at commit: a remote quorum can commit an
      index before the local write lands);
    - [consensus] — the rest of proposal-to-commit: the Accept round
      trip not hidden behind the local fsync;
    - [sched_wait] — committed until the replica's DMT admitted the call
      from the PAXOS sequence (the serialization tax, §4);
    - [execute] — admission until the server produced its response;
    - [reply] — response sent until the client's transport received it.

    Stage sums telescope: client_queue + batch_wait + fsync + consensus
    + sched_wait + execute + reply = end-to-end (for fully resolved
    spans).  A per-view table attributes election stalls, and a
    blocked-on table overlaps each sched_wait window with the sync events
    of PR 5's sanitizers (cond waits, gate blocks, DMT turn waits) to
    name what admission actually waited under. *)

module Table = Crane_report.Table

type stage_row = { stage : string; summary : Metrics.summary }

type view_row = {
  view : int;
  requests : int;
  e2e_p50 : int;
  e2e_p99 : int;
  max_stall : int;  (** worst sched_wait in the view: faults show up here *)
}

type blocked_row = {
  label : string;  (** "gate.block", "dmt.turn_wait", "cond:<name>" *)
  hits : int;  (** blocking intervals overlapping a sched_wait window *)
  blocked_ns : int;  (** summed overlap *)
}

type report = {
  committed : int;  (** committed client-call indices (bubbles excluded) *)
  complete : int;  (** of those, spans with the full propose->commit->admit chain *)
  coverage : float;
  bubbles : int;  (** committed time-bubble indices (no client latency) *)
  unattributed : int;  (** commits with no [req.proposed] record at all *)
  stages : stage_row list;  (** fixed stage order, zero-count stages included *)
  e2e : Metrics.summary;
  per_view : view_row list;
  blocked_on : blocked_row list;
  errors : string list;  (** malformed span DAGs: empty on a healthy trace *)
}

let stage_order =
  [ "client_queue"; "batch_wait"; "fsync"; "consensus"; "sched_wait";
    "execute"; "reply" ]

(* ------------------------------------------------------------------ *)

type req = {
  index : int;
  mutable call : Trace.call option;  (* None until the proposal is seen *)
  mutable conn : int;
  mutable rview : int;
  mutable proposer : string;
  mutable propose_ts : int;
  mutable queued_ns : int;
  mutable proposals : int;  (* duplicate-detection *)
  mutable fsync_ts : int option;
  mutable commit_local : int option;  (* commit instant on the proposer *)
  mutable commit_any : int option;  (* earliest commit on any replica *)
  mutable admit_local : int option;
  mutable admit_any : int option;
}

let new_req index =
  {
    index;
    call = None;
    conn = -1;
    rview = 0;
    proposer = "";
    propose_ts = 0;
    queued_ns = 0;
    proposals = 0;
    fsync_ts = None;
    commit_local = None;
    commit_any = None;
    admit_local = None;
    admit_any = None;
  }

let min_opt cur ts =
  match cur with Some t when t <= ts -> cur | Some _ | None -> Some ts

(* Per-key cursors over chronologically ordered occurrence lists: the
   matching phase consumes arrivals/replies in FIFO order per
   connection, mirroring how the proxy and server actually pair them. *)
module Cursor = struct
  type 'k t = ('k, int list ref) Hashtbl.t

  let create () : _ t = Hashtbl.create 64

  let push (t : _ t) k ts =
    match Hashtbl.find_opt t k with
    | Some r -> r := ts :: !r (* newest first; reversed when sealed *)
    | None -> Hashtbl.add t k (ref [ ts ])

  (* An oldest-first copy to pop from, leaving [t] to keep growing. *)
  let sealed (t : _ t) : _ t =
    let c = Hashtbl.copy t in
    Hashtbl.filter_map_inplace (fun _ r -> Some (ref (List.rev !r))) c;
    c

  (* Pop the first occurrence at or before [le] (FIFO). *)
  let pop_le (t : _ t) k ~le =
    match Hashtbl.find_opt t k with
    | Some ({ contents = ts :: rest } as r) when ts <= le ->
      r := rest;
      Some ts
    | _ -> None

  (* Pop the first occurrence at or after [ge], discarding stale ones. *)
  let pop_ge (t : _ t) k ~ge =
    match Hashtbl.find_opt t k with
    | Some r ->
      let rec go = function
        | ts :: rest when ts < ge -> go rest
        | ts :: rest ->
          r := rest;
          Some ts
        | [] ->
          r := [];
          None
      in
      go !r
    | None -> None
end

(* Disjoint sorted intervals, for the blocked-on overlap. *)
let merge_intervals ivs =
  let sorted = List.sort compare ivs in
  let rec go acc = function
    | [] -> List.rev acc
    | (s, e) :: rest -> (
      match acc with
      | (ps, pe) :: tail when s <= pe -> go ((ps, max pe e) :: tail) rest
      | _ -> go ((s, e) :: acc) rest)
  in
  go [] sorted

let overlap_with windows (s, e) =
  List.fold_left
    (fun acc (ws, we) ->
      let lo = max s ws and hi = min e we in
      acc + max 0 (hi - lo))
    0 windows

(* ------------------------------------------------------------------ *)

(* The streaming state: everything the single event pass collects.
   [report] reads it without consuming it. *)
type t = {
  tr : Trace.t;  (* resolves each event's replica *)
  reqs : (int, req) Hashtbl.t;
  rx : (string * int * Trace.rx) Cursor.t;  (* (node, conn, kind) arrivals *)
  replies : (string * int) Cursor.t;
  blocking : (string * string, (int * int) list ref) Hashtbl.t;
      (* (node, label) -> blocking intervals *)
  open_spans : (string * int * string, int) Hashtbl.t;  (* (node, tid, label) *)
}

let create tr =
  {
    tr;
    reqs = Hashtbl.create 1024;
    rx = Cursor.create ();
    replies = Cursor.create ();
    blocking = Hashtbl.create 64;
    open_spans = Hashtbl.create 64;
  }

let ingest st (ev : Trace.ev) =
  let req index =
    match Hashtbl.find_opt st.reqs index with
    | Some r -> r
    | None ->
      let r = new_req index in
      Hashtbl.add st.reqs index r;
      r
  in
  let node = Trace.resolve_node st.tr ev in
  let span_begin label = Hashtbl.replace st.open_spans (node, ev.tid, label) ev.ts in
  let span_end label =
    let k = (node, ev.tid, label) in
    match Hashtbl.find_opt st.open_spans k with
    | Some t0 -> (
      Hashtbl.remove st.open_spans k;
      match Hashtbl.find_opt st.blocking (node, label) with
      | Some r -> r := (t0, ev.ts) :: !r
      | None -> Hashtbl.add st.blocking (node, label) (ref [ (t0, ev.ts) ]))
    | None -> ()
  in
  match (ev.event, ev.ph) with
  | Trace.Proposed { index; conn; call; queued_ns; view }, Trace.Instant ->
    let r = req index in
    r.proposals <- r.proposals + 1;
    r.call <- Some call;
    r.conn <- conn;
    r.rview <- view;
    r.proposer <- node;
    r.propose_ts <- ev.ts;
    r.queued_ns <- queued_ns
  | Trace.Fsync_done { index }, Trace.Instant ->
    let r = req index in
    if r.fsync_ts = None then r.fsync_ts <- Some ev.ts
  | Trace.Commit { index }, Trace.Instant ->
    let r = req index in
    r.commit_any <- min_opt r.commit_any ev.ts;
    if r.proposer <> "" && node = r.proposer && r.commit_local = None then
      r.commit_local <- Some ev.ts
  | Trace.Admit { index; _ }, Trace.Instant when index <> 0 ->
    let r = req index in
    r.admit_any <- min_opt r.admit_any ev.ts;
    if r.proposer <> "" && node = r.proposer && r.admit_local = None then
      r.admit_local <- Some ev.ts
  | Trace.Rx { rx = kind; conn; _ }, Trace.Instant -> Cursor.push st.rx (node, conn, kind) ev.ts
  | Trace.Reply { conn; _ }, Trace.Instant -> Cursor.push st.replies (node, conn) ev.ts
  | Trace.Gate_block, Trace.Begin -> span_begin "gate.block"
  | Trace.Turn_wait _, Trace.Begin -> span_begin "dmt.turn_wait"
  | Trace.Gate_block, Trace.End -> span_end "gate.block"
  | Trace.Turn_wait _, Trace.End -> span_end "dmt.turn_wait"
  (* a thread waits on one condvar at a time, woken by that same object *)
  | Trace.Cond_wait { cond; _ }, Trace.Instant -> span_begin ("cond:" ^ cond.label)
  | Trace.Sync (Trace.Cond_woken, cond), Trace.Instant -> span_end ("cond:" ^ cond.label)
  | _ -> ()

let attach tr =
  let st = create tr in
  Trace.add_sink tr (ingest st);
  st

let report st =
  let rx = Cursor.sealed st.rx and replies = Cursor.sealed st.replies in
  let all = Hashtbl.fold (fun _ r acc -> r :: acc) st.reqs [] in
  let calls =
    List.filter (fun r -> r.proposals > 0 && r.call <> Some Trace.Bubble) all
    |> List.sort (fun a b ->
           compare (a.propose_ts, a.index) (b.propose_ts, b.index))
  in
  let client_sides : (int, string list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (node, conn, kind) _ ->
      if kind = Trace.Data then
        match Hashtbl.find_opt client_sides conn with
        | Some r -> if not (List.mem node !r) then r := node :: !r
        | None -> Hashtbl.add client_sides conn (ref [ node ]))
    st.rx;
  let samples : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.add samples s (ref [])) stage_order;
  let sample stage v =
    let r = Hashtbl.find samples stage in
    r := v :: !r
  in
  let e2e_samples = ref [] in
  let views : (int, (int list ref * int ref)) Hashtbl.t = Hashtbl.create 8 in
  let windows_per_node : (string, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let complete = ref 0 in
  (* In proposal order, since the transport events pair with calls FIFO
     per connection. *)
  List.iter
    (fun r ->
      let submit_ts = r.propose_ts - r.queued_ns in
      let commit = match r.commit_local with Some _ as c -> c | None -> r.commit_any in
      let admit = match r.admit_local with Some _ as a -> a | None -> r.admit_any in
      (* the transport event that carried this call to the proxy *)
      let rx_ts =
        match r.call with
        | Some Trace.Connect -> Cursor.pop_le rx (r.proposer, r.conn, Trace.Syn) ~le:submit_ts
        | Some Trace.Send -> Cursor.pop_le rx (r.proposer, r.conn, Trace.Data) ~le:submit_ts
        | Some Trace.Close -> Cursor.pop_le rx (r.proposer, r.conn, Trace.Fin) ~le:submit_ts
        | Some Trace.Bubble | None -> None
      in
      (* the server's reply, and its arrival on the far (client) side *)
      let reply_ts, client_rx_ts =
        match (r.call, admit) with
        | Some Trace.Send, Some admit_ts -> (
          let reply_ts = Cursor.pop_ge replies (r.proposer, r.conn) ~ge:admit_ts in
          match (reply_ts, Hashtbl.find_opt client_sides r.conn) with
          | Some ts, Some { contents = sides } ->
            let far = List.filter (fun n -> n <> r.proposer) sides in
            (reply_ts, List.find_map (fun n -> Cursor.pop_ge rx (n, r.conn, Trace.Data) ~ge:ts) far)
          | _ -> (reply_ts, None))
        | _ -> (None, None)
      in
      if r.proposals > 1 then
        err "index %d: %d proposal records (expected 1)" r.index r.proposals;
      if r.queued_ns < 0 then err "index %d: negative batch wait" r.index;
      match (commit, admit) with
      | Some commit_ts, Some admit_ts ->
        if commit_ts < r.propose_ts then
          err "index %d: committed before proposed" r.index;
        if admit_ts < commit_ts then
          err "index %d: admitted before committed" r.index;
        (match r.fsync_ts with
        | Some f when f < r.propose_ts ->
          err "index %d: fsync completed before proposal" r.index
        | _ -> ());
        incr complete;
        (match rx_ts with
        | Some rx -> sample "client_queue" (submit_ts - rx)
        | None -> sample "client_queue" 0);
        sample "batch_wait" r.queued_ns;
        let fsync =
          match r.fsync_ts with
          | Some f -> max 0 (min f commit_ts - r.propose_ts)
          | None -> 0
        in
        sample "fsync" fsync;
        sample "consensus" (max 0 (commit_ts - r.propose_ts) - fsync);
        sample "sched_wait" (admit_ts - commit_ts);
        (match reply_ts with
        | Some reply_ts ->
          sample "execute" (reply_ts - admit_ts);
          (match client_rx_ts with
          | Some crx -> sample "reply" (crx - reply_ts)
          | None -> ())
        | None -> ());
        let t0 = match rx_ts with Some rx -> rx | None -> submit_ts in
        let t1 =
          match (client_rx_ts, reply_ts) with
          | Some crx, _ -> crx
          | None, Some reply_ts -> reply_ts
          | None, None -> admit_ts
        in
        e2e_samples := (t1 - t0) :: !e2e_samples;
        (let samples_r, stall_r =
           match Hashtbl.find_opt views r.rview with
           | Some v -> v
           | None ->
             let v = (ref [], ref 0) in
             Hashtbl.add views r.rview v;
             v
         in
         samples_r := (t1 - t0) :: !samples_r;
         stall_r := max !stall_r (admit_ts - commit_ts));
        (* sched_wait window for the blocked-on overlap, only when the
           commit/admit pair lives on one replica's timeline *)
        (match (r.commit_local, r.admit_local) with
        | Some c, Some a when a > c -> (
          match Hashtbl.find_opt windows_per_node r.proposer with
          | Some w -> w := (c, a) :: !w
          | None -> Hashtbl.add windows_per_node r.proposer (ref [ (c, a) ]))
        | _ -> ())
      | _ -> () (* incomplete: counted via coverage *))
    calls;
  (* ---------------- aggregation ---------------- *)
  let committed_calls =
    List.filter (fun r -> r.commit_any <> None) calls |> List.length
  in
  let bubbles =
    List.length
      (List.filter (fun r -> r.call = Some Trace.Bubble && r.commit_any <> None) all)
  in
  let unattributed =
    List.length
      (List.filter (fun r -> r.proposals = 0 && r.commit_any <> None) all)
  in
  let denominator = committed_calls + unattributed in
  let stages =
    List.map
      (fun stage -> { stage; summary = Metrics.summarize !(Hashtbl.find samples stage) })
      stage_order
  in
  let per_view =
    Hashtbl.fold (fun view (s, stall) acc -> (view, !s, !stall) :: acc) views []
    |> List.sort compare
    |> List.map (fun (view, s, max_stall) ->
           let sm = Metrics.summarize s in
           {
             view;
             requests = sm.Metrics.count;
             e2e_p50 = sm.Metrics.p50;
             e2e_p99 = sm.Metrics.p99;
             max_stall;
           })
  in
  (* each blocking interval's overlap with its node's sched_wait windows,
     summed per label across nodes *)
  let by_label = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (node, label) ivs ->
      match Hashtbl.find_opt windows_per_node node with
      | None -> ()
      | Some w ->
        let windows = merge_intervals !w in
        List.iter
          (fun iv ->
            let o = overlap_with windows iv in
            if o > 0 then
              let hits, ns = Option.value (Hashtbl.find_opt by_label label) ~default:(0, 0) in
              Hashtbl.replace by_label label (hits + 1, ns + o))
          !ivs)
    st.blocking;
  let blocked_on =
    Hashtbl.fold (fun label (hits, blocked_ns) acc -> { label; hits; blocked_ns } :: acc)
      by_label []
    |> List.sort (fun a b ->
           compare (b.blocked_ns, a.label) (a.blocked_ns, b.label))
  in
  {
    committed = denominator;
    complete = !complete;
    coverage =
      (if denominator = 0 then 1.0
       else float_of_int !complete /. float_of_int denominator);
    bubbles;
    unattributed;
    stages;
    e2e = Metrics.summarize !e2e_samples;
    per_view;
    blocked_on;
    errors = List.rev !errors;
  }

let analyze tr =
  let st = create tr in
  List.iter (ingest st) (Trace.events tr);
  report st

(* ------------------------------------------------------------------ *)

let us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1_000.)

let render r =
  let b = Buffer.create 2048 in
  Printf.bprintf b
    "span coverage: %d/%d committed requests fully decomposed (%.1f%%)\n"
    r.complete r.committed (100. *. r.coverage);
  Printf.bprintf b "committed bubbles: %d   unattributed commits: %d\n\n"
    r.bubbles r.unattributed;
  Buffer.add_string b
    (Table.render ~title:"critical path (us)"
       ~header:[ "stage"; "count"; "p50"; "p90"; "p99"; "max"; "total_ms" ]
       (List.map
          (fun { stage; summary = s } ->
            [ stage; string_of_int s.Metrics.count; us s.Metrics.p50;
              us s.Metrics.p90; us s.Metrics.p99; us s.Metrics.max;
              Printf.sprintf "%.2f" (float_of_int s.Metrics.total /. 1e6) ])
          r.stages
       @ [ [ "end_to_end"; string_of_int r.e2e.Metrics.count;
             us r.e2e.Metrics.p50; us r.e2e.Metrics.p90; us r.e2e.Metrics.p99;
             us r.e2e.Metrics.max;
             Printf.sprintf "%.2f" (float_of_int r.e2e.Metrics.total /. 1e6) ] ]));
  Buffer.add_char b '\n';
  if r.per_view <> [] then begin
    Buffer.add_string b
      (Table.render ~title:"per view"
         ~header:[ "view"; "requests"; "e2e_p50_us"; "e2e_p99_us"; "max_stall_us" ]
         (List.map
            (fun v ->
              [ string_of_int v.view; string_of_int v.requests; us v.e2e_p50;
                us v.e2e_p99; us v.max_stall ])
            r.per_view));
    Buffer.add_char b '\n'
  end;
  if r.blocked_on <> [] then begin
    Buffer.add_string b
      (Table.render ~title:"scheduler wait blocked on"
         ~header:[ "object"; "hits"; "blocked_us" ]
         (List.map
            (fun { label; hits; blocked_ns } ->
              [ label; string_of_int hits; us blocked_ns ])
            r.blocked_on));
    Buffer.add_char b '\n'
  end;
  if r.errors <> [] then begin
    Buffer.add_string b "MALFORMED SPAN DAGS:\n";
    List.iter (fun e -> Printf.bprintf b "  - %s\n" e) r.errors
  end;
  Buffer.contents b
