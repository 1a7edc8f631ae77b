(** The flight recorder: a deterministic event sink for the simulated
    cluster.

    Every event carries a virtual timestamp (nanoseconds — the engine's
    [Time.t]), the engine thread id, and a replica attribution (either an
    explicit node name or a thread group resolved through
    {!register_group}).  Because the whole stack runs in virtual time on
    a deterministic engine, the same seed produces a byte-identical
    trace: the exported JSON doubles as a regression oracle.

    What happened is one {!event} constructor with typed fields; this
    module alone knows how each one is spelled on the wire ({!describe}).

    The sink is designed to be (near) zero cost when disabled: the
    instrumented hot paths check {!enabled} before building any event
    payload, and the shared {!null} sink is permanently disabled. *)

type arg = Int of int | Str of string

type phase =
  | Instant
  | Begin  (** span open — matched with [End] per (node, tid, cat, name) *)
  | End
  | Async_begin of int  (** cross-thread span, matched by (cat, name, id) *)
  | Async_end of int
  | Counter of int  (** sampled gauge value *)

type sync_kind = Mutex | Cond | Rwlock | Sem | Barrier | Turn
type sync_obj = { obj : int; kind : sync_kind; label : string }

type sync_op =
  | Acquire
  | Acquire_rd
  | Release
  | Cond_signal
  | Cond_woken
  | Sem_post
  | Sem_wait
  | Barrier_arrive
  | Barrier_leave

type rx = Syn | Data | Fin
type call = Bubble | Connect | Send | Close

type fault =
  | Crash
  | Crash_torn
  | Restart
  | Partition
  | Partition_oneway
  | Heal
  | Replace
  | Autoheal
  | Loss_begin
  | Loss_end
  | Latency_begin
  | Latency_end
  | Skip

type event =
  (* sim: the engine *)
  | Thread_spawn of { thread : string; parent : int }
  | Group_kill of { group : int }
  | Blocked
  (* sync: pthread and DMT primitives, and the DMT turn *)
  | Sync of sync_op * sync_obj
  | Cond_wait of { cond : sync_obj; mutex : sync_obj }
  | Thread_exit
  | Thread_join of { joined : int }
  | Turn_wait of { runq : int }
  (* mem: monitored shared-memory cells *)
  | Mem of { write : bool; loc : int; site : string }
  (* net: fabric and socket layer *)
  | Drop of { src : string; reason : string }
  | Rx of { rx : rx; conn : int; bytes : int }
  (* req: the request critical path *)
  | Proposed of { index : int; conn : int; call : call; queued_ns : int; view : int }
  | Lifecycle of { index : int }
  | Fsync_done of { index : int }
  | Recv_return of { conn : int; bytes : int }
  | Reply of { conn : int; bytes : int }
  (* proxy *)
  | Batch_flush of { events : int }
  | Bubble_proposed of { nclock : int }
  | Connect_proposed of { conn : int; port : int }
  | Send_proposed of { conn : int; bytes : int }
  | Close_proposed of { conn : int }
  (* read: the read fast path *)
  | Read_lease of { wm : int; epoch : int }
  | Read_backup of { wm : int; stale : int; epoch : int }
  | Read_reject of { why : string }
  (* paxos *)
  | Propose of { index : int; view : int }
  | Decide of { index : int }
  | Quorum_ack of { index : int; acks : int }
  | Commit of { index : int }
  | Heartbeat of { view : int; committed : int }
  | Lease_grant of { view : int; until : int }
  | Abdicate of { view : int }
  | Election_start of { view : int }
  | View_change of { view : int; election_ns : int }
  | Compact of { watermark : int; snapshot : int }
  | Snapshot_offer of { index : int; bytes : int }
  | Snapshot_serve of { index : int; dst : string }
  | Snapshot_install of { index : int; behind : int }
  (* member: the configuration history *)
  | Join of { node : string; epoch : int }
  | Leave of { node : string; epoch : int }
  | Fence of { node : string; epoch : int }
  | Reconfig_propose of { epoch : int; members : string list }
  (* seq, gate, exec: the replica's PAXOS sequence and DMT gate *)
  | Append of { bubble : bool; depth : int; index : int }
  | Admit of { index : int; conn : int }
  | Gate_block
  | Bubble_drain of { clocks : int; bulk : bool }
  | Exec_begin of { index : int; conn : int; lane : int }
  | Exec_end of { conn : int }
  (* wal *)
  | Wal_submit of { bytes : int; group : int; queued : int }
  | Wal_durable of { lat_ns : int; group : int }
  (* counter: gauges, the value rides in the [Counter] phase *)
  | Open_conns
  | Admitted
  (* chaos: injected faults *)
  | Fault of { fault : fault; target : string }

type ev = {
  ts : int;  (** virtual nanoseconds *)
  tid : int;  (** engine thread id, -1 outside any thread *)
  group : int;  (** engine thread group, -1 if none *)
  node : string;  (** replica name, "" when only the group is known *)
  ph : phase;
  event : event;
}

type t = {
  mutable enabled : bool;
  retain : bool;  (** keep events for export (off for streaming-only) *)
  limit : int;
  mutable evs : ev list;  (** newest first *)
  mutable n : int;
  mutable dropped : int;
  mutable sinks : (ev -> unit) list;
  groups : (int, string) Hashtbl.t;  (** thread group -> replica name *)
}

let create ?(retain = true) ?(limit = 5_000_000) () =
  {
    enabled = true;
    retain;
    limit;
    evs = [];
    n = 0;
    dropped = 0;
    sinks = [];
    groups = Hashtbl.create 8;
  }

(* The shared disabled sink: the default recorder of every engine. *)
let null =
  let t = create ~retain:false () in
  t.enabled <- false;
  t

let enabled t = t.enabled
let set_enabled t on = if t != null then t.enabled <- on
let length t = t.n
let dropped t = t.dropped
let add_sink t f = t.sinks <- t.sinks @ [ f ]

let register_group t ~group ~node =
  if t.enabled then Hashtbl.replace t.groups group node

let resolve_node t ev =
  if ev.node <> "" then ev.node
  else
    match Hashtbl.find_opt t.groups ev.group with Some n -> n | None -> ""

let record t ~ts ~tid ?(group = -1) ?(node = "") ?(ph = Instant) event =
  if t.enabled then begin
    let ev = { ts; tid; group; node; ph; event } in
    List.iter (fun f -> f ev) t.sinks;
    if t.retain then
      if t.n < t.limit then begin
        t.evs <- ev :: t.evs;
        t.n <- t.n + 1
      end
      else t.dropped <- t.dropped + 1
  end

let events t = List.rev t.evs

(* ------------------------------------------------------------------ *)
(* The printer: the one place an event kind is spelled as strings. *)

let sync_kind_name = function
  | Mutex -> "mutex"
  | Cond -> "cond"
  | Rwlock -> "rwlock"
  | Sem -> "sem"
  | Barrier -> "barrier"
  | Turn -> "turn"

let sync_op_name = function
  | Acquire -> "acquire"
  | Acquire_rd -> "acquire_rd"
  | Release -> "release"
  | Cond_signal -> "cond_signal"
  | Cond_woken -> "cond_woken"
  | Sem_post -> "sem_post"
  | Sem_wait -> "sem_wait"
  | Barrier_arrive -> "barrier_arrive"
  | Barrier_leave -> "barrier_leave"

let call_name = function
  | Bubble -> "bubble"
  | Connect -> "connect"
  | Send -> "send"
  | Close -> "close"

let fault_name = function
  | Crash -> "crash"
  | Crash_torn -> "crash_torn"
  | Restart -> "restart"
  | Partition -> "partition"
  | Partition_oneway -> "partition_oneway"
  | Heal -> "heal"
  | Replace -> "replace"
  | Autoheal -> "autoheal"
  | Loss_begin -> "loss_begin"
  | Loss_end -> "loss_end"
  | Latency_begin -> "latency_begin"
  | Latency_end -> "latency_end"
  | Skip -> "skip"

let obj_args o =
  [ ("obj", Int o.obj); ("kind", Str (sync_kind_name o.kind)); ("label", Str o.label) ]

let describe_event = function
  | Thread_spawn { thread; parent } ->
    ("sim", "thread_spawn", [ ("thread", Str thread); ("parent", Int parent) ])
  | Group_kill { group } -> ("sim", "group_kill", [ ("group", Int group) ])
  | Blocked -> ("sim", "blocked", [])
  | Sync (op, o) -> ("sync", sync_op_name op, obj_args o)
  | Cond_wait { cond; mutex } ->
    ( "sync",
      "cond_wait",
      obj_args cond @ [ ("mutex", Int mutex.obj); ("mutex_label", Str mutex.label) ] )
  | Thread_exit -> ("sync", "thread_exit", [])
  | Thread_join { joined } -> ("sync", "thread_join", [ ("joined", Int joined) ])
  | Turn_wait { runq } -> ("dmt", "turn_wait", [ ("runq", Int runq) ])
  | Mem { write; loc; site } ->
    ("mem", (if write then "write" else "read"), [ ("loc", Int loc); ("site", Str site) ])
  | Drop { src; reason } -> ("net", "drop", [ ("src", Str src); ("reason", Str reason) ])
  | Rx { rx; conn; bytes } ->
    ( "net",
      (match rx with Syn -> "rx_syn" | Data -> "rx_data" | Fin -> "rx_fin"),
      ("conn", Int conn) :: (if bytes > 0 then [ ("bytes", Int bytes) ] else []) )
  | Proposed { index; conn; call; queued_ns; view } ->
    ( "req",
      "proposed",
      [ ("index", Int index); ("conn", Int conn); ("kind", Str (call_name call));
        ("queued_ns", Int queued_ns); ("view", Int view) ] )
  | Lifecycle { index } -> ("req", "lifecycle", [ ("index", Int index) ])
  | Fsync_done { index } -> ("req", "fsync_done", [ ("index", Int index) ])
  | Recv_return { conn; bytes } ->
    ("req", "recv_return", [ ("conn", Int conn); ("bytes", Int bytes) ])
  | Reply { conn; bytes } -> ("req", "reply", [ ("conn", Int conn); ("bytes", Int bytes) ])
  | Batch_flush { events } -> ("proxy", "batch_flush", [ ("events", Int events) ])
  | Bubble_proposed { nclock } -> ("proxy", "bubble_proposed", [ ("nclock", Int nclock) ])
  | Connect_proposed { conn; port } ->
    ( "proxy",
      "call_proposed",
      [ ("conn", Int conn); ("port", Int port); ("kind", Str "connect") ] )
  | Send_proposed { conn; bytes } ->
    ( "proxy",
      "call_proposed",
      [ ("conn", Int conn); ("bytes", Int bytes); ("kind", Str "send") ] )
  | Close_proposed { conn } ->
    ("proxy", "call_proposed", [ ("conn", Int conn); ("kind", Str "close") ])
  | Read_lease { wm; epoch } -> ("read", "lease", [ ("wm", Int wm); ("epoch", Int epoch) ])
  | Read_backup { wm; stale; epoch } ->
    ("read", "backup", [ ("wm", Int wm); ("stale", Int stale); ("epoch", Int epoch) ])
  | Read_reject { why } -> ("read", "reject", [ ("why", Str why) ])
  | Propose { index; view } ->
    ("paxos", "propose", [ ("index", Int index); ("view", Int view) ])
  | Decide { index } -> ("paxos", "decide", [ ("index", Int index) ])
  | Quorum_ack { index; acks } ->
    ("paxos", "quorum_ack", [ ("index", Int index); ("acks", Int acks) ])
  | Commit { index } -> ("paxos", "commit", [ ("index", Int index) ])
  | Heartbeat { view; committed } ->
    ("paxos", "heartbeat", [ ("view", Int view); ("committed", Int committed) ])
  | Lease_grant { view; until } ->
    ("paxos", "lease_grant", [ ("view", Int view); ("until", Int until) ])
  | Abdicate { view } -> ("paxos", "abdicate", [ ("view", Int view) ])
  | Election_start { view } -> ("paxos", "election_start", [ ("view", Int view) ])
  | View_change { view; election_ns } ->
    ("paxos", "view_change", [ ("view", Int view); ("election_ns", Int election_ns) ])
  | Compact { watermark; snapshot } ->
    ("paxos", "compact", [ ("watermark", Int watermark); ("snapshot", Int snapshot) ])
  | Snapshot_offer { index; bytes } ->
    ("paxos", "snapshot_offer", [ ("index", Int index); ("bytes", Int bytes) ])
  | Snapshot_serve { index; dst } ->
    ("paxos", "snapshot_serve", [ ("index", Int index); ("to", Str dst) ])
  | Snapshot_install { index; behind } ->
    ("paxos", "snapshot_install", [ ("index", Int index); ("behind", Int behind) ])
  | Join { node; epoch } -> ("member", "join", [ ("node", Str node); ("epoch", Int epoch) ])
  | Leave { node; epoch } -> ("member", "leave", [ ("node", Str node); ("epoch", Int epoch) ])
  | Fence { node; epoch } -> ("member", "fence", [ ("node", Str node); ("epoch", Int epoch) ])
  | Reconfig_propose { epoch; members } ->
    ( "member",
      "reconfig_propose",
      [ ("epoch", Int epoch); ("members", Str (String.concat "," members)) ] )
  | Append { bubble; depth; index } ->
    ( "seq",
      (if bubble then "append_bubble" else "append_call"),
      [ ("depth", Int depth); ("index", Int index) ] )
  | Admit { index; conn } -> ("seq", "admit", [ ("index", Int index); ("conn", Int conn) ])
  | Gate_block -> ("gate", "block", [])
  | Bubble_drain { clocks; bulk } ->
    ("gate", "bubble_drain", [ ("clocks", Int clocks); ("bulk", Int (Bool.to_int bulk)) ])
  | Exec_begin { index; conn; lane } ->
    ("exec", "begin", [ ("index", Int index); ("conn", Int conn); ("lane", Int lane) ])
  | Exec_end { conn } -> ("exec", "end", [ ("conn", Int conn) ])
  | Wal_submit { bytes; group; queued } ->
    ( "wal",
      "write_submit",
      [ ("bytes", Int bytes); ("group", Int group); ("queued", Int queued) ] )
  | Wal_durable { lat_ns; group } ->
    ("wal", "write_durable", [ ("lat_ns", Int lat_ns); ("group", Int group) ])
  | Open_conns -> ("counter", "open_conns", [])
  | Admitted -> ("counter", "admitted", [])
  | Fault { fault; target } ->
    ("chaos", fault_name fault, if target = "" then [] else [ ("target", Str target) ])

(* A span's closing record carries no arguments: its payload describes
   the opening. *)
let describe ev =
  let ((cat, name, _) as d) = describe_event ev.event in
  match ev.ph with
  | End | Async_end _ -> (cat, name, [])
  | Instant | Begin | Async_begin _ | Counter _ -> d

(* ------------------------------------------------------------------ *)
(* Exporters.  All output is produced with integer arithmetic and
   insertion-ordered iteration so that equal event sequences render to
   byte-identical text. *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Virtual microseconds with nanosecond precision, as chrome://tracing
   expects.  Integer math keeps the rendering deterministic. *)
let us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (abs ns mod 1000)

let args_json args =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":%s" (escape k)
             (match v with Int i -> string_of_int i | Str s -> "\"" ^ escape s ^ "\""))
         args)
  ^ "}"

(* Stable pid numbering: pid 0 is the unattributed simulator substrate,
   replicas are numbered in order of first appearance in the event
   stream. *)
let pid_table t evs =
  let order = ref [] and pids = Hashtbl.create 8 and next = ref 1 in
  List.iter
    (fun ev ->
      let node = resolve_node t ev in
      if node <> "" && not (Hashtbl.mem pids node) then begin
        Hashtbl.add pids node !next;
        order := node :: !order;
        incr next
      end)
    evs;
  (List.rev !order, fun ev -> match resolve_node t ev with
    | "" -> 0
    | node -> Hashtbl.find pids node)

let chrome_record ~pid ev =
  let cat, name, args = describe ev in
  let common =
    Printf.sprintf "\"cat\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d" (escape cat)
      (us_of_ns ev.ts) pid ev.tid
  in
  let name = escape name in
  match ev.ph with
  | Instant ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"i\",\"s\":\"t\",\"args\":%s}" name common
      (args_json args)
  | Begin ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"B\",\"args\":%s}" name common
      (args_json args)
  | End -> Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"E\"}" name common
  | Async_begin id ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"b\",\"id\":%d,\"args\":%s}" name common id
      (args_json args)
  | Async_end id ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"e\",\"id\":%d}" name common id
  | Counter v ->
    Printf.sprintf "{\"name\":\"%s\",%s,\"ph\":\"C\",\"args\":{\"%s\":%d}}" name common name v

(** Chrome [trace_event] JSON (load in chrome://tracing or Perfetto). *)
let to_chrome t =
  let evs = events t in
  let nodes, pid_of = pid_table t evs in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"sim\"}}";
  List.iteri
    (fun i node ->
      Buffer.add_string b
        (Printf.sprintf
           ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           (i + 1) (escape node)))
    nodes;
  List.iter
    (fun ev ->
      Buffer.add_string b ",\n";
      Buffer.add_string b (chrome_record ~pid:(pid_of ev) ev))
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let ph_string = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Async_begin _ -> "b"
  | Async_end _ -> "e"
  | Counter _ -> "C"

let jsonl_line t ev =
  let cat, name, args = describe ev in
  let extra =
    match ev.ph with
    | Async_begin id | Async_end id -> Printf.sprintf ",\"id\":%d" id
    | Counter v -> Printf.sprintf ",\"value\":%d" v
    | Instant | Begin | End -> ""
  in
  Printf.sprintf
    "{\"ts\":%d,\"node\":\"%s\",\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\",\"ph\":\"%s\"%s,\"args\":%s}\n"
    ev.ts
    (escape (resolve_node t ev))
    ev.tid (escape cat) (escape name) (ph_string ev.ph) extra (args_json args)

(** One JSON object per line: the stream-processing-friendly format. *)
let to_jsonl t =
  let b = Buffer.create 65536 in
  List.iter (fun ev -> Buffer.add_string b (jsonl_line t ev)) (events t);
  Buffer.contents b
