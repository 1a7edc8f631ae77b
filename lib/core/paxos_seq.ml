(** The PAXOS sequence (paper §3.2): the queue of decided client socket
    calls and time bubbles between a replica's proxy and its server
    process (Boost shared memory in the paper).  The server's wrappers
    admit calls from its head; the gate drains bubbles at the head clock
    by clock.  Gates park on the sequence while it is empty (one per
    scheduler lane in pool mode), and every append wakes them. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

(* A queued entry carries its global consensus index (0 = unknown, e.g.
   checkpoint replay before indices were threaded through): the trace id
   request spans are joined on.  In pool mode it also carries its
   conflict footprint, classified on its first admission-scan visit, so a
   command stuck behind a conflict is not re-classified on every scan;
   the footprint leaves with its entry. *)
type entry = { index : int; ev : Event.t; mutable fp : footprint }

and footprint = Unclassified | Classified of Api.footprint option

type t = {
  eng : Engine.t;
  node : string;  (** replica name for trace attribution *)
  q : entry Queue.t;
  mutable bubble_left : int;
      (* Remaining logical clocks of a bubble currently at the head
         (0 = the head is whatever [q] starts with). *)
  mutable last_nonempty : Time.t;
      (* Last instant the sequence held (or received) an entry: the
         Wtimeout reference point. *)
  mutable calls : int; (* client socket-call entries appended *)
  mutable bubbles : int; (* time-bubble entries appended *)
  mutable queued_calls : int; (* client calls delivered but not yet consumed *)
  mutable max_depth : int;
      (* High-water mark of the queue: batched consensus delivers commits
         in bursts, and this records how deep the burst backlog got.
         Attributed per view: a view change resets it to the current
         depth, so a report never shows a stale peak from a previous
         primary's burst regime. *)
  mutable depth_view : int; (* view the current high-water mark belongs to *)
  mutable version : int;
      (* Bumped by every change to what the sequence holds, so the pool
         gate can tell that a scan would see what the last one saw. *)
  mutable waiters : unit Engine.waker list; (* gates parked in [park] *)
}

let create ?(node = "") eng =
  {
    eng;
    node;
    q = Queue.create ();
    bubble_left = 0;
    last_nonempty = Engine.now eng;
    calls = 0;
    bubbles = 0;
    queued_calls = 0;
    max_depth = 0;
    depth_view = 0;
    version = 0;
    waiters = [];
  }

let bump t = t.version <- t.version + 1
let version t = t.version

let wake t =
  let ws = t.waiters in
  t.waiters <- [];
  List.iter (fun w -> ignore (w () : bool)) (List.rev ws)

(* Park the calling fiber until the next [append] or [wake], or until
   [timeout] passes (its waker then leaves the list). *)
let park ?timeout t =
  let mine = ref (fun () -> false) in
  let arm w =
    mine := w;
    t.waiters <- w :: t.waiters
  in
  match timeout with
  | None -> Engine.suspend t.eng arm
  | Some d ->
    if Engine.suspend_timeout t.eng d arm = None then
      t.waiters <- List.filter (fun w -> w != !mine) t.waiters

let append t ?(index = 0) ?(view = 0) ev =
  Queue.add { index; ev; fp = Unclassified } t.q;
  bump t;
  if view > t.depth_view then begin
    t.depth_view <- view;
    t.max_depth <- Queue.length t.q
  end;
  if Queue.length t.q > t.max_depth then t.max_depth <- Queue.length t.q;
  t.last_nonempty <- Engine.now t.eng;
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.node
      (Trace.Append { bubble = Event.is_bubble ev; depth = Queue.length t.q; index });
  if Event.is_bubble ev then t.bubbles <- t.bubbles + 1
  else begin
    t.calls <- t.calls + 1;
    t.queued_calls <- t.queued_calls + 1
  end;
  wake t

(* Promote a bubble reaching the head of the queue into the counter. *)
let normalize t =
  if t.bubble_left = 0 then
    match Queue.peek_opt t.q with
    | Some { ev = Event.Time_bubble { nclock }; _ } ->
      ignore (Queue.pop t.q);
      bump t;
      t.bubble_left <- nclock
    | Some _ | None -> ()

let head t =
  normalize t;
  if t.bubble_left > 0 then Some (Event.Time_bubble { nclock = t.bubble_left })
  else Option.map (fun e -> e.ev) (Queue.peek_opt t.q)

(* Allocation-free views of the head, for the gate's every-turn check. *)

(* Clocks left of the bubble being drained at the head (0: none). *)
let bubble_left t =
  normalize t;
  t.bubble_left

let head_is_bubble t =
  normalize t;
  t.bubble_left > 0 || ((not (Queue.is_empty t.q)) && Event.is_bubble (Queue.peek t.q).ev)

(* The head of a sequence that is neither empty nor headed by a bubble. *)
let head_call t = (Queue.peek t.q).ev

(* Shared admission bookkeeping for an entry leaving the queue, whether
   popped from the head or plucked mid-queue by the pool-mode scan. *)
let note_admitted t index ev =
  bump t;
  if not (Event.is_bubble ev) then begin
    t.queued_calls <- t.queued_calls - 1;
    if Engine.tracing t.eng then begin
      let conn =
        match ev with
        | Event.Connect { conn; _ } | Event.Send { conn; _ }
        | Event.Close { conn } -> conn
        | Event.Time_bubble _ -> -1
      in
      Engine.emit t.eng ~node:t.node (Trace.Admit { index; conn });
      (* Close the proposer-opened request-lifecycle span.  Every
         replica admits the index; the first admission wins the pair,
         later ends find no open span and are ignored. *)
      if index > 0 then
        Engine.emit t.eng ~node:t.node ~ph:(Trace.Async_end index) (Trace.Lifecycle { index })
    end
  end

(* Admit the call at the head, returning its global index (0 when the
   entry predates index threading, e.g. checkpoint replay). *)
let drop_head_ix t =
  normalize t;
  if t.bubble_left > 0 then invalid_arg "Paxos_seq.drop_head: head is a bubble"
  else begin
    let e = Queue.pop t.q in
    note_admitted t e.index e.ev;
    e.index
  end

let drop_head t = ignore (drop_head_ix t)

(* Pool-mode admission scan: visit queued entries in index order, letting
   [f ix ev fp] admit (remove, with the same bookkeeping and trace events
   as [drop_head_ix]), skip (leave queued, keep scanning) or stop.  [fp]
   is a [Send]'s footprint under [classify], computed once per entry (it
   is [None] for other calls).  The scan never crosses a time bubble —
   bubbles are barriers drained by the gate at the head, exactly as in
   1-lane mode — and visits at most [limit] entries.  [f] must not touch
   the sequence.  Relative order of the kept entries is preserved, so the
   queue stays index-sorted and [lowest_index] remains the oldest
   unadmitted index.  Entries past the point where the scan stops are
   not touched, so a scan costs O(visited). *)
let scan_admit t ~limit ~classify f =
  normalize t;
  if t.bubble_left = 0 then begin
    let kept = Queue.create () in
    let visited = ref 0 in
    let stopped = ref false in
    while (not !stopped) && not (Queue.is_empty t.q) do
      let e = Queue.peek t.q in
      if !visited >= limit || Event.is_bubble e.ev then stopped := true
      else begin
        ignore (Queue.pop t.q);
        incr visited;
        let fp =
          match (e.fp, e.ev) with
          | Classified fp, _ -> fp
          | Unclassified, Event.Send { payload; _ } ->
            let fp = classify payload in
            e.fp <- Classified fp;
            fp
          | Unclassified, (Event.Connect _ | Event.Close _ | Event.Time_bubble _) -> None
        in
        match f e.index e.ev fp with
        | `Admit -> note_admitted t e.index e.ev
        | `Skip -> Queue.add e kept
        | `Stop ->
          stopped := true;
          Queue.add e kept
      end
    done;
    (* kept ++ unvisited, back into [q]; both transfers are O(1). *)
    Queue.transfer t.q kept;
    Queue.transfer kept t.q
  end

let is_empty t =
  normalize t;
  t.bubble_left = 0 && Queue.is_empty t.q

let empty_for t =
  if is_empty t then Engine.now t.eng - t.last_nonempty else Time.zero

(* Drain the whole bubble at the head, returning its remaining clocks. *)
let drain_bubble t =
  normalize t;
  let n = t.bubble_left in
  t.bubble_left <- 0;
  bump t;
  n

(* Consume up to [n] logical clocks from the bubble at the head. *)
let drain_bubble_upto t n =
  normalize t;
  if t.bubble_left > 0 then begin
    t.bubble_left <- max 0 (t.bubble_left - n);
    bump t
  end
  else invalid_arg "Paxos_seq.drain_bubble_upto: head is not a bubble"

(* Discard everything pending: a snapshot install supersedes any decided
   entries still waiting in the sequence (they are all at or below the
   snapshot's global index, and the restored state already embodies
   them).  Quiescence-gated checkpoints guarantee no connection spans the
   boundary, so nothing mid-conversation is lost. *)
let clear t =
  Queue.clear t.q;
  bump t;
  t.bubble_left <- 0;
  t.queued_calls <- 0;
  t.last_nonempty <- Engine.now t.eng

(* Global index of the oldest entry still queued (bubbles included —
   they carry indices too), or None when nothing is queued.  The read
   fast path uses it as an upper bound on the state watermark: anything
   at or past this index has been decided but not yet admitted. *)
let lowest_index t =
  normalize t;
  Option.map (fun e -> e.index) (Queue.peek_opt t.q)

let max_depth t = t.max_depth
let max_depth_view t = t.depth_view
let queued_calls t = t.queued_calls
let calls t = t.calls
let bubbles t = t.bubbles
