(* Protocol property: 3-5 PAXOS cores ({!Crane_paxos.Paxos_core}) over an
   in-memory network, with no engine, fabric or WAL.

   The network is shaped like the fabric: 40 us plus up to 20 us of
   latency, FIFO per link.  A seeded schedule then takes one random
   choice per step: deliver a pending message, drop or duplicate one,
   fire an armed timer, finish a node's oldest durable write (these
   three are drawn from whatever is due within 5 ms of the earliest
   pending event, so independent events reorder freely), crash a replica
   and recover it from the records it made durable, or submit a value.
   After every step the two continuous invariants of the SMR oracle must
   hold.  A heal-and-quiesce phase then runs every event in time order
   with no more faults; every core must reach applied = committed = the
   primary's committed, with nothing pending at the primary.

   Only replicas that do not believe they lead crash.  With
   [~crash_leader:true] the leader may crash too, and the core fails the
   property today: at seed 13 the view-0 leader restarts, bootstraps as
   primary of view 0 again and reuses indices its lost proposals took
   (committed-prefix-agreement); at seed 0 a new primary's merged log has
   a hole that no voter made durable, and it never commits past it
   (liveness).  Seed 12954 breaks committed-prefix-agreement without any
   leader crash: a primary that voted for a higher view keeps proposing,
   and once it follows the new view it applies its own stale entry.  Each
   fix changes the protocol's same-seed behaviour. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Core = Crane_paxos.Paxos_core
module Invariants = Crane_chaos.Invariants
module Mc = Crane_analysis.Mc

type node = {
  name : string;
  id : int;
  mutable core : Core.t;
  mutable incarnation : int;
  mutable durable : string option list;  (* newest first; [None] is a torn record *)
  writes : (Time.t * string list * Core.fsync) Queue.t;  (* stable at, oldest first *)
  mutable timers : (Time.t * Core.timer) list;  (* deadline, timer *)
  mutable checked : int;  (* committed prefix already held against the reference *)
}

type link = { src : node; dst : node; msgs : (Time.t * Core.msg) Queue.t; mutable floor : Time.t }

type event = Deliver of link | Fsync of node | Fire of node * (Time.t * Core.timer)

type world = {
  nodes : node array;
  links : link array;  (* src * size + dst *)
  rnd : Random.State.t;
  step : Core.step;
  seed : int;
  reference : (int, string) Hashtbl.t;  (* index -> first value seen committed *)
  mutable now : Time.t;
  mutable values : int;
}

exception Violation of string

let violate fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* LAN-scale timers, as in the raw-PAXOS test group; small catch-up pages
   so paging runs too. *)
let config =
  { Core.default_config with
    heartbeat_period = Time.ms 100; election_timeout = Time.ms 300;
    election_jitter = Time.ms 50; round_retry = Time.ms 100; lease_duration = Time.ms 150;
    catchup_chunk = 4 }

(* Independent events due within this much of the earliest one may run
   first. *)
let window = Time.ms 5

let size w = Array.length w.nodes

let post w (n : node) dst msg =
  let l = w.links.((n.id * size w) + int_of_string (String.sub dst 1 (String.length dst - 1))) in
  let at = max l.floor (w.now + Time.us 40 + Random.State.int w.rnd (Time.us 20)) in
  l.floor <- at;
  Queue.add (at, msg) l.msgs

let emit w n : Core.action -> unit = function
  | Send { dsts; msg; _ } -> List.iter (fun d -> post w n d msg) dsts
  | Persist { records; fsync } ->
    let last = Queue.fold (fun _ (at, _, _) -> at) w.now n.writes in
    Queue.add (max w.now last + Time.us 15, records, fsync) n.writes
  | Truncate { header; watermark } ->
    let keep r = Option.bind r Crane_paxos.Log_record.index |> Option.fold ~none:false ~some:(( < ) watermark) in
    n.durable <- Some header :: List.filter keep n.durable
  | Arm { after; timer } -> n.timers <- (w.now + after, timer) :: n.timers
  | Reject _ | Deliver _ | Demote | Config _ | Fence _ | Install_snapshot _ | Compacted _
  | Trace _ -> ()

let feed w n input = w.step n.core ~now:w.now input

(* A fresh incarnation recovered from what [n] made durable; writes still
   in flight are lost. *)
let boot w n =
  let rng = Rng.create ((w.seed * 31) + (n.incarnation * 7) + n.id) in
  let members = Array.to_list (Array.map (fun n -> n.name) w.nodes) in
  n.core <- Core.create ~config ~rng ~members ~node:n.name (List.rev n.durable);
  n.core.emit <- emit w n;
  Queue.clear n.writes;
  n.timers <- [];
  n.checked <- 0;
  feed w n (Start { as_primary = false })

(* A crash tears the oldest write in flight, if any. *)
let crash w n ~torn =
  if torn && not (Queue.is_empty n.writes) then n.durable <- None :: n.durable;
  n.incarnation <- n.incarnation + 1;
  boot w n

let time_of = function
  | Deliver l -> fst (Queue.peek l.msgs)
  | Fsync n ->
    let at, _, _ = Queue.peek n.writes in
    at
  | Fire (_, (at, _)) -> at

let pending w =
  let acc = ref [] in
  Array.iter (fun l -> if not (Queue.is_empty l.msgs) then acc := Deliver l :: !acc) w.links;
  Array.iter
    (fun n ->
      if not (Queue.is_empty n.writes) then acc := Fsync n :: !acc;
      List.iter (fun t -> acc := Fire (n, t) :: !acc) n.timers)
    w.nodes;
  !acc

let run_event w e =
  w.now <- max w.now (time_of e);
  match e with
  | Deliver l ->
    let _, msg = Queue.pop l.msgs in
    feed w l.dst (Receive { from = l.src.name; msg })
  | Fsync n ->
    let _, records, fsync = Queue.pop n.writes in
    n.durable <- List.rev_append (List.map Option.some records) n.durable;
    feed w n (Fsync_done fsync)
  | Fire (n, armed) ->
    n.timers <- List.filter (fun t -> t != armed) n.timers;
    feed w n (Timer (snd armed))

let earliest events = List.fold_left (fun m e -> min m (time_of e)) max_int events
let pick rnd l = List.nth l (Random.State.int rnd (List.length l))
let primaries w = List.filter (fun n -> Core.is_primary n.core) (Array.to_list w.nodes)

(* The two continuous invariants, over the cores as they stand. *)
let check w =
  let leaders = primaries w in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a.id < b.id && a.core.view = b.core.view then
            violate "%s: %s and %s both primary in view %d" Invariants.single_primary a.name
              b.name a.core.view)
        leaders)
    leaders;
  Array.iter
    (fun n ->
      let lo = max (n.checked + 1) (n.core.base + 1) in
      List.iteri
        (fun i value ->
          (match Hashtbl.find_opt w.reference (lo + i) with
          | None -> Hashtbl.replace w.reference (lo + i) value
          | Some v when v = value -> ()
          | Some _ -> violate "%s: %s disagrees at index %d" Invariants.prefix_agreement n.name (lo + i));
          n.checked <- lo + i)
        (Core.get_committed_range n.core ~lo ~hi:n.core.committed))
    w.nodes

let random_step w ~crash_leader =
  let rnd = w.rnd in
  let n = w.nodes.(Random.State.int rnd (size w)) in
  let busy = List.filter (fun l -> not (Queue.is_empty l.msgs)) (Array.to_list w.links) in
  match Random.State.int rnd 100 with
  | r when r < 6 && busy <> [] -> ignore (Queue.pop (pick rnd busy).msgs)
  | r when r < 8 && busy <> [] ->
    let l = pick rnd busy in
    post w l.src l.dst.name (snd (Queue.peek l.msgs))
  | r when r < 10 ->
    if crash_leader || not (Core.is_primary n.core) then crash w n ~torn:(Random.State.bool rnd)
  | r when r < 20 -> (
    match primaries w with
    | [] -> ()
    | leaders ->
      w.values <- w.values + 1;
      feed w (pick rnd leaders) (Submit [ Printf.sprintf "v%d" w.values ]))
  | _ -> (
    match pending w with
    | [] -> ()
    | events ->
      let horizon = earliest events + window in
      run_event w (pick rnd (List.filter (fun e -> time_of e <= horizon) events)))

(* Every core caught up with a primary that has nothing pending. *)
let live w =
  let leader =
    List.fold_left
      (fun acc n -> match acc with Some l when l.core.view >= n.core.view -> acc | _ -> Some n)
      None (primaries w)
  in
  match leader with
  | None -> Some "liveness: no primary"
  | Some { core = p; _ } when Core.pending p > 0 ->
    Some (Printf.sprintf "liveness: primary %s holds %d uncommitted entries" p.self (Core.pending p))
  | Some { core = p; _ } ->
    Array.to_list w.nodes
    |> List.find_map (fun n ->
           if n.core.applied = p.committed && n.core.committed = p.committed then None
           else
             Some
               (Printf.sprintf "liveness: %s applied %d committed %d, primary committed %d" n.name
                  n.core.applied n.core.committed p.committed))

(* Heal and quiesce: events run in time order with no more faults.  Once
   only timers are left, every core must be caught up before the next
   timer past [until]. *)
let rec quiesce w ~until =
  let events = pending w in
  let busy = List.exists (function Fire _ -> false | Deliver _ | Fsync _ -> true) events in
  let next = earliest events in
  match live w with
  | None when not busy -> ()
  | verdict when next > until ->
    violate "%s" (Option.value verdict ~default:"liveness: messages still in flight after the heal")
  | _ ->
    run_event w (List.find (fun e -> time_of e = next) events);
    check w;
    quiesce w ~until

(* One schedule: [None] if every check held, else the violation. *)
let run ?(wrap = Fun.id) ?(crash_leader = false) seed =
  let rnd = Random.State.make [| seed |] in
  let size = 3 + Random.State.int rnd 3 in
  let nodes =
    Array.init size (fun id ->
        let name = Printf.sprintf "n%d" id in
        { name; id; core = Core.create ~rng:(Rng.create 0) ~members:[] ~node:name [];
          incarnation = 0; durable = []; writes = Queue.create (); timers = []; checked = 0 })
  in
  let link i = { src = nodes.(i / size); dst = nodes.(i mod size); msgs = Queue.create (); floor = 0 } in
  let w =
    { nodes; links = Array.init (size * size) link; rnd; step = wrap Core.step; seed;
      reference = Hashtbl.create 64; now = Time.zero; values = 0 }
  in
  try
    Array.iter (boot w) nodes;
    for _ = 1 to 150 do
      random_step w ~crash_leader;
      check w
    done;
    quiesce w ~until:(w.now + Time.sec 3);
    None
  with Violation v -> Some v

let default_schedules = 1000

(* Schedules are numbered 0, 1, 2, ...: tier-1 and CI run the same ones,
   and a failure names the seed that replays it. *)
let prop ~count =
  let next = ref (-1) in
  let seeds = QCheck2.Gen.make_primitive ~gen:(fun _ -> incr next; !next) ~shrink:(fun _ -> Seq.empty) in
  QCheck2.Test.make ~name:"paxos core: safety and liveness over random schedules" ~count
    ~print:string_of_int seeds (fun seed ->
      match run seed with
      | None -> true
      | Some v -> QCheck2.Test.fail_reportf "seed %d: %s" seed v)

(* Both Crane-MC mutations are liveness bugs, and the property catches
   each.  The seeds are the first failing ones in 0, 1, 2, ... *)
let mutation_seeds = [ (Mc.Hole_backfill, 1); (Mc.Dup_accept, 8) ]

let test_mutation_caught (mutation, seed) () =
  match run ~wrap:(Mc.wrapper mutation) seed with
  | Some v when String.starts_with ~prefix:"liveness" v ->
    Alcotest.(check (option string)) "the same schedule passes unmutated" None (run seed)
  | Some v -> Alcotest.failf "seed %d: expected a liveness violation, got %s" seed v
  | None -> Alcotest.failf "%s survived seed %d" (Mc.mutation_name mutation) seed

let suite =
  [
    ( "paxos.core",
      ( "random schedules",
        `Quick,
        fun count ->
          let _, _, run = QCheck_alcotest.to_alcotest (prop ~count) in
          run () )
      :: List.map
           (fun ((m, _) as ms) ->
             ("mutation: " ^ Mc.mutation_name m ^ " caught", `Quick, fun (_ : int) -> test_mutation_caught ms ()))
           mutation_seeds );
  ]
