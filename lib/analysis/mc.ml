(** Crane-MC: stateless model checking of the replicated cluster.

    The chaos harness samples schedules from a seeded RNG; Crane-MC
    {e enumerates} them.  A schedule is the sequence of answers to the
    choice points the controlled fabric exposes ({!Crane_sim.Sched}):
    which eligible message is delivered next, whether it is dropped,
    which replica crashes, which delay bucket a send lands in.  Because
    everything downstream of those answers is deterministic, the checker
    can explore the choice tree depth-first by re-executing the whole
    simulation per schedule — and any violation is reproducible from its
    recorded choice sequence alone, which is exactly what the
    counterexample trace file contains.

    Exploration is bounded (branch depth, crash budget, drop budget,
    virtual-time horizon) and pruned with dynamic partial-order
    reduction in the Flanagan–Godefroid style: two deliveries commute
    unless they target the same replica, and a pair of same-replica
    deliveries only forces a backtrack point when the second was not
    caused by the first — causality tracked with the vector clocks of
    Crane-San's happens-before engine ({!Vc}).  Control choices (crash,
    drop, delay) are never pruned.

    Every execution is checked against the SMR safety oracle the chaos
    harness uses ({!Crane_chaos.Invariants}), plus completion and the
    Wing–Gong linearizability checker ({!Linearize}) over the recorded
    client history, including lease- and bounded-stale backup reads. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Sched = Crane_sim.Sched
module Cluster = Crane_core.Cluster
module Instance = Crane_core.Instance
module Proxy = Crane_core.Proxy
module Paxos = Crane_paxos.Paxos
module Core = Crane_paxos.Paxos_core
module Ledger = Crane_chaos.Ledger
module Invariants = Crane_chaos.Invariants
module Target = Crane_workload.Target

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

(* Mutation self-check: each non-default value reintroduces a fixed
   paxos bug in every replica, as a wrapper around the protocol core's
   step, so the checker can prove it would have caught the regression. *)
type mutation = No_mutation | Hole_backfill | Dup_accept

let mutations =
  [ ("none", No_mutation); ("hole-backfill", Hole_backfill); ("dup-accept", Dup_accept) ]

let mutation_name m = fst (List.find (fun (_, m') -> m' = m) mutations)

let mutation_of_name s =
  try List.assoc s mutations with Not_found -> invalid_arg ("unknown mutation " ^ s)

(* Run one step with every action it produces passed to [f] first. *)
let filtering f (step : Core.step) (c : Core.t) ~now input =
  let emit = c.emit in
  c.emit <- f emit;
  Fun.protect ~finally:(fun () -> c.emit <- emit) (fun () -> step c ~now input)

exception Skipped_apply

(* Hole backfill: the apply loop ran only when the commit index moved, so
   a log hole filled below it (catch-up after a lossy window) left the
   replica wedged at [applied < committed].  A delivery while the commit
   index still stands where the message found it is that skipped apply:
   undo it and end the step there, as the buggy handler did.  A snapshot
   fast-forward applies unconditionally, then as now. *)
let hole_backfill step (c : Core.t) ~now (input : Core.input) =
  match input with
  | Receive { msg = { body = Snapshot_resp _; _ }; _ } -> step c ~now input
  | Receive _ -> (
    let committed = c.committed in
    let skip emit : Core.action -> unit = function
      | Deliver _ when c.committed = committed -> raise Skipped_apply
      | a -> emit a
    in
    try filtering skip step c ~now input
    with Skipped_apply ->
      c.applied <- c.applied - 1;
      c.decisions <- c.decisions - 1)
  | _ -> step c ~now input

(* Duplicate Accept: a retransmitted Accept for entries already logged was
   swallowed instead of re-acked, so a lost first ack stalled the round
   forever.  Only the duplicate path acks without an fsync, so this drops
   every Accept_ok an Accept sends on the spot. *)
let dup_accept step c ~now (input : Core.input) =
  match input with
  | Receive { msg = { body = Accept _; _ }; _ } ->
    let swallow emit : Core.action -> unit = function
      | Send { msg = { body = Accept_ok _; _ }; _ } -> ()
      | a -> emit a
    in
    filtering swallow step c ~now input
  | _ -> step c ~now input

let wrapper = function
  | No_mutation -> Fun.id
  | Hole_backfill -> hole_backfill
  | Dup_accept -> dup_accept

type config = {
  replicas : int;
  clients : int;
  writes : int;  (** writes per client *)
  reads : int;  (** fast-path reads per client *)
  seed : int;
  warmup : Time.t;
      (** choices before this instant take the default path: boot-time
          heartbeat permutations are not worth the branch budget *)
  horizon : Time.t;  (** virtual-time bound per execution *)
  settle : Time.t;  (** quiet time required after the load completes *)
  max_branch : int;  (** branchable choice points per execution *)
  crash_budget : int;
  crash_window : int;
      (** only the first N in-window delivery instants host a crash
          choice *)
  restart_after : Time.t option;
  drop_budget : int;
  drop_paxos_only : bool;
      (** branch drop choices only for paxos-port messages *)
  deliver_branch : bool;
      (** branch on delivery order.  Off = fault-targeted mode: messages
          deliver in canonical FIFO order and the only choice points are
          fault injections (drops, crashes, delays), so a drop/crash
          budget of k explores all placements of k faults in ~N^k runs
          instead of multiplying them into the delivery interleavings *)
  delays : int array;  (** base-latency multipliers; [|1|] = off *)
  read_fastpath : bool;
  pool_workers : int;
  dpor : bool;  (** false = naive full enumeration *)
  max_runs : int;
  check_completion : bool;
      (** require every client operation to complete — sound as long as
          a quorum of replicas stays live (crashes are quorum-safe and
          the horizon covers an election) *)
  mutation : mutation;
}

let default =
  {
    replicas = 3;
    clients = 2;
    writes = 2;
    reads = 1;
    seed = 1;
    warmup = Time.ms 250;
    horizon = Time.sec 4;
    settle = Time.ms 600;
    (* the 3-replica/2-client default explores to this bound in 3328
       schedules; max_branch 10 completes too but costs 13984 *)
    max_branch = 8;
    crash_budget = 0;
    crash_window = 12;
    restart_after = Some (Time.ms 700);
    drop_budget = 0;
    drop_paxos_only = true;
    deliver_branch = true;
    delays = [| 1 |];
    read_fastpath = true;
    pool_workers = 1;
    dpor = true;
    max_runs = 4000;
    check_completion = true;
    mutation = No_mutation;
  }

(* Failure-detection timers sized like the chaos harness's LAN config.
   Election jitter stays real (per-node deterministic: each instance's
   RNG is split from the cluster seed at boot, and monitor draws are
   self-paced, so replays are still exact): with near-zero jitter both
   backups of a killed primary tick in perfect lockstep — each bumps
   max_view_seen locally before the other's View_change arrives, neither
   ever grants a vote, and the duel livelocks past any horizon. *)
let mc_paxos_config =
  {
    Paxos.default_config with
    Paxos.heartbeat_period = Time.ms 50;
    election_timeout = Time.ms 150;
    election_jitter = Time.ms 40;
    round_retry = Time.ms 80;
    suspect_timeout = Time.ms 450;
    lease_duration = Time.ms 100;
  }

let instance_config cfg =
  {
    Instance.default_config with
    Instance.paxos = { mc_paxos_config with Paxos.wrap = wrapper cfg.mutation };
    (* Plan II (§7.2): DMT + PAXOS with bubbling off, so every delivery
       the enumerator explores is a client call and no bubble traffic
       heals the quiescent-tail bugs the mutation self-check reintroduces
       (a replica wedged on a log hole heals at the next commit).  The
       idle thread spins at turn_cost, in closed form.  turn_cost stays
       at 50 us because it times every handoff of every explored
       schedule: changing it would change the recorded counterexamples. *)
    mode = Instance.No_bubbling;
    turn_cost = Time.us 50;
    idle_period = Time.us 100;
    read_fastpath = cfg.read_fastpath;
    pool_workers = cfg.pool_workers;
    (* one Accept per entry: the minimal message alphabet to enumerate *)
    batch_max = 1;
    (* no checkpoints inside the horizon: restarts replay the log *)
    checkpoint_period = Time.sec 60;
  }

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)

type point = { pt_label : string; pt_keys : string array; pt_taken : int }

type trans = {
  tr_id : int;  (** fabric message id *)
  tr_tid : int;  (** interned destination node *)
  tr_clk : int;  (** destination's own clock after this delivery *)
  tr_mvc : Vc.t;  (** send-time vector clock of the delivered message *)
  tr_point : int;  (** index of the deliver choice point; -1 if width 1 *)
}

type exec = {
  x_points : point array;
  x_trans : trans array;
  x_verdict : (string * string) option;  (** invariant, detail *)
}

let key_id k =
  match String.index_opt k '|' with
  | Some i -> int_of_string (String.sub k 0 i)
  | None -> -1

let key_port k =
  match String.rindex_opt k ':' with
  | Some i ->
    (try int_of_string (String.sub k (i + 1) (String.length k - i - 1))
     with _ -> -1)
  | None -> -1

(* Execute one schedule: follow [forced] at the first branchable choice
   points, take the default (index 0) afterwards, and record the whole
   branchable choice sequence plus every delivery transition. *)
let run_one cfg ~forced =
  let members = List.init cfg.replicas (fun i -> Printf.sprintf "node%d" (i + 1)) in
  let cluster =
    Cluster.create ~seed:cfg.seed ~members ~cfg:(instance_config cfg)
      ~server:Ledger.server ()
  in
  let eng = Cluster.engine cluster in
  let world = Cluster.world cluster in
  (* --- verdict --- *)
  let verdict = ref None in
  let violate inv detail = if !verdict = None then verdict := Some (inv, detail) in
  (* --- recorded schedule --- *)
  let points = ref [] and npoints = ref 0 in
  let record label keys taken =
    points := { pt_label = label; pt_keys = keys; pt_taken = taken } :: !points;
    incr npoints;
    !npoints - 1
  in
  (* --- workload progress (drives the branching window) --- *)
  let ops_total = cfg.clients * (cfg.writes + cfg.reads) in
  let ops_done = ref 0 in
  let clients_done = ref 0 in
  let load_done_at = ref None in
  let in_window () =
    Engine.now eng >= cfg.warmup && !clients_done < cfg.clients
  in
  (* --- budgets --- *)
  let drops_used = ref 0 and crashes_used = ref 0 and instants = ref 0 in
  let branchable label keys =
    in_window ()
    && !npoints < cfg.max_branch
    &&
    match label with
    | "net.deliver" -> cfg.deliver_branch
    | "mc.crash" | "net.delay" -> true
    | "net.fate" ->
      !drops_used < cfg.drop_budget
      && ((not cfg.drop_paxos_only) || key_port keys.(0) = Paxos.paxos_port)
    | _ -> false
  in
  (* Only branchable choices are recorded and consume forced-prefix
     slots.  Branchability is a deterministic function of the execution
     so far, so a replayed prefix makes exactly the recording decisions
     its parent run made — the consistency check in [explore] verifies
     this alignment on every run. *)
  let pending_point = ref None in
  let choose ~label ~keys =
    if not (branchable label keys) then 0
    else begin
      let k = !npoints in
      let taken =
        if k < Array.length forced then begin
          if forced.(k) >= Array.length keys then
            failwith
              (Printf.sprintf
                 "crane-mc: schedule divergence at choice %d (%s): forced %d, \
                  width %d"
                 k label forced.(k) (Array.length keys));
          forced.(k)
        end
        else 0
      in
      let idx = record label keys taken in
      if label = "net.deliver" then
        pending_point := Some (idx, key_id keys.(taken));
      if label = "net.fate" && taken = 1 then incr drops_used;
      taken
    end
  in
  (* --- happens-before over deliveries (DPOR's commutativity oracle) --- *)
  let tids = Hashtbl.create 8 in
  let tid_of n =
    match Hashtbl.find_opt tids n with
    | Some i -> i
    | None ->
      let i = Hashtbl.length tids in
      Hashtbl.add tids n i;
      i
  in
  let vcs = Hashtbl.create 8 in
  let vc_of n = Option.value (Hashtbl.find_opt vcs n) ~default:Vc.empty in
  let msg_vcs = Hashtbl.create 1024 in
  let trans = ref [] in
  let on_send ~id ~src ~dst:_ = Hashtbl.replace msg_vcs id (vc_of src) in
  let on_deliver ~id ~src:_ ~dst =
    let tid = tid_of dst in
    let mvc = Option.value (Hashtbl.find_opt msg_vcs id) ~default:Vc.empty in
    let vc = Vc.tick (Vc.join (vc_of dst) mvc) tid in
    Hashtbl.replace vcs dst vc;
    let pt =
      match !pending_point with
      | Some (pi, pid) when pid = id ->
        pending_point := None;
        pi
      | _ -> -1
    in
    trans :=
      { tr_id = id; tr_tid = tid; tr_clk = Vc.get vc tid; tr_mvc = mvc;
        tr_point = pt }
      :: !trans
  in
  (* --- continuously sampled invariants --- *)
  let oracle = Invariants.create () in
  let sample () = Invariants.sample oracle cluster ~violate in
  (* --- crash injection --- *)
  let pre_deliver () =
    sample ();
    if
      in_window ()
      && !crashes_used < cfg.crash_budget
      && !instants < cfg.crash_window
    then begin
      incr instants;
      if Invariants.quorum_safe_to_kill cluster then begin
        let live = List.sort compare (List.map fst (Cluster.instances cluster)) in
        let keys = Array.of_list ("none" :: live) in
        let i = choose ~label:"mc.crash" ~keys in
        if i > 0 then begin
          let victim = List.nth live (i - 1) in
          incr crashes_used;
          Cluster.kill cluster victim;
          match cfg.restart_after with
          | Some d ->
            Engine.after eng d (fun () ->
                ignore (Cluster.restart cluster victim))
          | None -> ()
        end
      end
    end
  in
  (* --- install the scheduler --- *)
  let sched = Sched.create ~base:(Time.us 200) ~delays:cfg.delays () in
  sched.Sched.pick <- (fun ~label ~keys -> choose ~label ~keys);
  sched.Sched.on_send <- on_send;
  sched.Sched.on_deliver <- on_deliver;
  sched.Sched.pre_deliver <- pre_deliver;
  Engine.set_sched eng sched;
  (* --- client workload, with full history recording --- *)
  let history = ref [] in
  let acked = ref [] in
  let note ev = history := ev :: !history in
  let target = Target.cluster cluster ~port:80 in
  let do_write ~who ~from c k =
    let ok = ref false in
    let attempt = ref 0 in
    while (not !ok) && !attempt < 3 do
      incr attempt;
      let id = Printf.sprintf "c%dw%da%d" c k !attempt in
      (match Target.connect target ~from with
      | None -> Engine.sleep eng (Time.ms 40)
      | Some conn ->
        let inv = Engine.now eng in
        ok := Ledger.put ~timeout:(Time.ms 600) conn id <> None;
        if !ok then acked := id :: !acked;
        (* an unacked PUT may or may not have been decided: a
           forever-pending append the linearizer is free to place or drop *)
        note
          {
            Linearize.who;
            op = Linearize.Append id;
            mode = Linearize.Strict;
            inv;
            resp = (if !ok then Some (Engine.now eng) else None);
            res = (if !ok then Some Linearize.Ack else None);
          })
    done;
    if !ok then incr ops_done
  in
  let do_read ~who ~from c k =
    let nodes = Cluster.members cluster in
    let node = List.nth nodes ((c + k) mod List.length nodes) in
    let inv = Engine.now eng in
    let fast =
      if cfg.read_fastpath then
        Ledger.fast_get_node world ~timeout:(Time.ms 600)
          ~read_port:Instance.default_config.Instance.read_port ~node ~from
      else None
    in
    match fast with
    | Some (Proxy.Served r) ->
      incr ops_done;
      note
        {
          Linearize.who;
          op = Linearize.Get;
          mode =
            (match r.Proxy.mode with
            | `Lease -> Linearize.Strict
            | `Backup s -> Linearize.Stale s);
          inv;
          resp = Some (Engine.now eng);
          res = Some (Linearize.Ids (Ledger.ids_of_reply r.Proxy.value));
        }
    | Some (Proxy.Rejected | Proxy.Write_required) | None ->
      (* consensus-funnel fallback: a strict read *)
      let ok = ref false in
      let attempt = ref 0 in
      while (not !ok) && !attempt < 3 do
        incr attempt;
        let inv = Engine.now eng in
        match Ledger.consensus_get target ~from with
        | Some reply ->
          ok := true;
          incr ops_done;
          note
            {
              Linearize.who;
              op = Linearize.Get;
              mode = Linearize.Strict;
              inv;
              resp = Some (Engine.now eng);
              res = Some (Linearize.Ids (Ledger.ids_of_reply reply));
            }
        | None -> Engine.sleep eng (Time.ms 40)
      done
  in
  for c = 1 to cfg.clients do
    Engine.at eng cfg.warmup (fun () ->
        Engine.spawn eng ~name:(Printf.sprintf "mc-client%d" c) (fun () ->
            let who = Printf.sprintf "c%d" c in
            let from = Printf.sprintf "mc-%s" who in
            for k = 1 to cfg.writes + cfg.reads do
              if k <= cfg.writes then do_write ~who ~from c k
              else do_read ~who ~from c k
            done;
            incr clients_done;
            if !clients_done = cfg.clients then
              load_done_at := Some (Engine.now eng)))
  done;
  (* --- run to a terminal state --- *)
  Cluster.start cluster;
  let converged () =
    match Cluster.instances cluster with
    | [] -> false
    | (_, i0) :: _ as live ->
      List.for_all
        (fun (_, i) ->
          let px = i.Instance.paxos in
          Paxos.applied px = Paxos.committed px
          && Paxos.committed px = Paxos.committed i0.Instance.paxos
          && Invariants.state_of i
             = Invariants.state_of i0)
        live
  in
  let engine_limit = ref false in
  (let continue_ = ref true in
   while !continue_ do
     let now = Engine.now eng in
     if now >= cfg.horizon then continue_ := false
     else begin
       let stop_at = min cfg.horizon (now + Time.ms 50) in
       (* an empty no-op event guarantees the clock reaches [stop_at]
          even if the real queue holds nothing before it *)
       Engine.at eng stop_at ignore;
       (try Engine.run ~until:stop_at ~limit:2_000_000 eng
        with Engine.Limit_exceeded ->
          engine_limit := true;
          continue_ := false);
       match !load_done_at with
       | Some t when converged () && Engine.now eng >= t + cfg.settle ->
         continue_ := false
       | _ -> ()
     end
   done);
  (* --- terminal checks (the first violation wins) --- *)
  let terminal (inv, verdict) = Option.iter (violate inv) verdict in
  sample ();
  terminal (Invariants.committed_prefix oracle cluster);
  if !engine_limit then
    violate "engine-limit" "execution exceeded the per-run event budget";
  terminal (Invariants.thread_failures cluster);
  if cfg.check_completion && !ops_done < ops_total then
    violate "completion"
      (Printf.sprintf "%d of %d client operations incomplete at the horizon"
         (ops_total - !ops_done) ops_total);
  terminal (Invariants.state_convergence cluster);
  terminal (Invariants.acked_durability cluster ~acked:!acked);
  terminal (Invariants.epoch_agreement cluster);
  (match Linearize.check (List.rev !history) with
  | Linearize.Linear _ -> ()
  | Linearize.Violation m -> violate "linearizability" m);
  Engine.clear_sched eng;
  {
    x_points = Array.of_list (List.rev !points);
    x_trans = Array.of_list (List.rev !trans);
    x_verdict = !verdict;
  }

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

type choice = {
  c_label : string;
  c_width : int;
  c_taken : int;
  c_key : string;  (** the alternative actually taken, for readability *)
}

type violation = {
  v_invariant : string;
  v_detail : string;
  v_run : int;
  v_choices : choice list;
}

type outcome = {
  o_runs : int;
  o_transitions : int;
  o_complete : bool;  (** tree fully explored within the bounds *)
  o_violation : violation option;
}

type nd = {
  nd_label : string;
  nd_keys : string array;
  mutable nd_taken : int;
  mutable nd_done : int list;
  mutable nd_todo : int list;
}

let choices_of_points pts =
  List.map
    (fun p ->
      {
        c_label = p.pt_label;
        c_width = Array.length p.pt_keys;
        c_taken = p.pt_taken;
        c_key = p.pt_keys.(p.pt_taken);
      })
    (Array.to_list pts)

(* Flanagan–Godefroid backtrack computation over one finished execution.
   For every delivery t_j, find the latest earlier delivery t_i to the
   same replica that did not cause t_j (vector clocks decide); flipping
   their order is the canonical non-commuting alternative, so t_j's
   message becomes a backtrack alternative at t_i's choice point — or
   every alternative there if t_j's message was not yet eligible. *)
let dpor_update exec stack =
  let frames = Array.of_list stack in
  let tr = exec.x_trans in
  let n = Array.length tr in
  let add_backtrack pi target_id =
    if pi >= 0 && pi < Array.length frames then begin
      let f = frames.(pi) in
      let w = Array.length f.nd_keys in
      let want i =
        i <> f.nd_taken
        && (not (List.mem i f.nd_done))
        && not (List.mem i f.nd_todo)
      in
      let matching = ref [] in
      for i = w - 1 downto 0 do
        if key_id f.nd_keys.(i) = target_id then matching := i :: !matching
      done;
      match !matching with
      | [ i ] -> if want i then f.nd_todo <- i :: f.nd_todo
      | _ ->
        (* not eligible at that point: conservatively try everything *)
        for i = 0 to w - 1 do
          if want i then f.nd_todo <- i :: f.nd_todo
        done
    end
  in
  for j = 1 to n - 1 do
    let tj = tr.(j) in
    let rec scan i =
      if i >= 0 then begin
        let ti = tr.(i) in
        if
          ti.tr_tid = tj.tr_tid
          && not (Vc.covers tj.tr_mvc ~tid:ti.tr_tid ~clock:ti.tr_clk)
        then add_backtrack ti.tr_point tj.tr_id
        else scan (i - 1)
      end
    in
    scan (j - 1)
  done

let explore cfg =
  let stack = ref ([] : nd list) in
  let runs = ref 0 and transitions = ref 0 in
  let result = ref None in
  let complete = ref true in
  let continue_ = ref true in
  while !continue_ do
    let forced = Array.of_list (List.map (fun n -> n.nd_taken) !stack) in
    let exec = run_one cfg ~forced in
    incr runs;
    transitions := !transitions + Array.length exec.x_trans;
    if Array.length exec.x_points < Array.length forced then
      failwith "crane-mc: schedule divergence (shorter replay)";
    List.iteri
      (fun k nd ->
        let p = exec.x_points.(k) in
        if p.pt_label <> nd.nd_label || p.pt_taken <> forced.(k) then
          failwith
            (Printf.sprintf
               "crane-mc: schedule divergence at choice %d (%s/%d vs %s/%d)" k
               p.pt_label p.pt_taken nd.nd_label forced.(k)))
      !stack;
    (* A violation found while a mutation is active only counts if the
       exact same schedule is clean on unmutated code: crash/drop
       noise can break completion on its own (e.g. kill the primary with
       no restart), and such a counterexample would "reproduce" on fixed
       code too, proving nothing about the mutant.  Non-discriminating
       violations are skipped and the search continues. *)
    let discriminating () =
      cfg.mutation = No_mutation
      ||
      let all_forced = Array.map (fun p -> p.pt_taken) exec.x_points in
      let fixed = run_one { cfg with mutation = No_mutation } ~forced:all_forced in
      fixed.x_verdict = None
    in
    (match exec.x_verdict with
    | Some (inv, detail) when discriminating () ->
      result :=
        Some
          {
            v_invariant = inv;
            v_detail = detail;
            v_run = !runs;
            v_choices = choices_of_points exec.x_points;
          };
      continue_ := false
    | Some _ | None ->
      (* extend the stack with the fresh choice points of this run *)
      let base = List.length !stack in
      let fresh = ref [] in
      for k = Array.length exec.x_points - 1 downto base do
        let p = exec.x_points.(k) in
        let w = Array.length p.pt_keys in
        let todo =
          if cfg.dpor && p.pt_label = "net.deliver" then []
          else List.filter (fun i -> i <> p.pt_taken) (List.init w Fun.id)
        in
        fresh :=
          {
            nd_label = p.pt_label;
            nd_keys = p.pt_keys;
            nd_taken = p.pt_taken;
            nd_done = [];
            nd_todo = todo;
          }
          :: !fresh
      done;
      stack := !stack @ !fresh;
      if cfg.dpor then dpor_update exec !stack;
      (* depth-first backtrack: flip the deepest pending alternative *)
      let rec backtrack rev =
        match rev with
        | [] ->
          stack := [];
          continue_ := false
        | nd :: above -> (
          nd.nd_done <- nd.nd_taken :: nd.nd_done;
          let todo =
            List.sort_uniq compare
              (List.filter (fun i -> not (List.mem i nd.nd_done)) nd.nd_todo)
          in
          match todo with
          | [] -> backtrack above
          | t :: rest ->
            nd.nd_taken <- t;
            nd.nd_todo <- rest;
            stack := List.rev (nd :: above))
      in
      backtrack (List.rev !stack);
      if !continue_ && !runs >= cfg.max_runs then begin
        complete := false;
        continue_ := false
      end)
  done;
  {
    o_runs = !runs;
    o_transitions = !transitions;
    o_complete = !complete;
    o_violation = !result;
  }

(* ------------------------------------------------------------------ *)
(* Mutation presets                                                      *)

(* Bounds under which each reintroduced bug is reachable: both need one
   message drop (the duplicate-Accept path only fires on a retransmission
   after a lost first ack; the hole-backfill path needs a lost Accept to
   open the hole); dup-accept additionally needs a crashed backup so the
   survivor's ack is the quorum-critical one. *)
let mutation_preset m =
  let mutant =
    { default with mutation = m; clients = 1; reads = 0; drop_budget = 1;
      deliver_branch = false; horizon = Time.sec 3; max_branch = 32 }
  in
  match m with
  | No_mutation -> default
  | Hole_backfill -> { mutant with writes = 2; crash_budget = 0; max_runs = 2000 }
  | Dup_accept ->
    { mutant with writes = 1; crash_budget = 1; crash_window = 10; restart_after = None;
      max_runs = 4000 }

(* ------------------------------------------------------------------ *)
(* Counterexample traces                                               *)

let write_trace cfg v path =
  let oc = open_out path in
  Printf.fprintf oc "crane-mc-trace v1\n";
  Printf.fprintf oc "invariant=%s\n" v.v_invariant;
  Printf.fprintf oc "detail=%s\n" v.v_detail;
  Printf.fprintf oc "seed=%d\n" cfg.seed;
  Printf.fprintf oc "replicas=%d\n" cfg.replicas;
  Printf.fprintf oc "clients=%d\n" cfg.clients;
  Printf.fprintf oc "writes=%d\n" cfg.writes;
  Printf.fprintf oc "reads=%d\n" cfg.reads;
  Printf.fprintf oc "warmup_us=%d\n" (cfg.warmup / Time.us 1);
  Printf.fprintf oc "horizon_us=%d\n" (cfg.horizon / Time.us 1);
  Printf.fprintf oc "settle_us=%d\n" (cfg.settle / Time.us 1);
  Printf.fprintf oc "max_branch=%d\n" cfg.max_branch;
  Printf.fprintf oc "crash_budget=%d\n" cfg.crash_budget;
  Printf.fprintf oc "crash_window=%d\n" cfg.crash_window;
  Printf.fprintf oc "restart_after_us=%d\n"
    (match cfg.restart_after with None -> -1 | Some d -> d / Time.us 1);
  Printf.fprintf oc "drop_budget=%d\n" cfg.drop_budget;
  Printf.fprintf oc "drop_paxos_only=%b\n" cfg.drop_paxos_only;
  Printf.fprintf oc "deliver_branch=%b\n" cfg.deliver_branch;
  Printf.fprintf oc "delays=%s\n"
    (String.concat "," (List.map string_of_int (Array.to_list cfg.delays)));
  Printf.fprintf oc "read_fastpath=%b\n" cfg.read_fastpath;
  Printf.fprintf oc "pool_workers=%d\n" cfg.pool_workers;
  Printf.fprintf oc "mutation=%s\n" (mutation_name cfg.mutation);
  List.iter
    (fun c ->
      Printf.fprintf oc "choice %d/%d %s %s\n" c.c_taken c.c_width c.c_label
        c.c_key)
    v.v_choices;
  close_out oc

let read_trace path =
  let ic = open_in path in
  let cfg = ref { default with check_completion = true } in
  let forced = ref [] in
  let expect = ref "" in
  (try
     let header = input_line ic in
     if header <> "crane-mc-trace v1" then
       failwith (path ^ ": not a crane-mc trace");
     while true do
       let line = input_line ic in
       match String.index_opt line '=' with
       | Some i when not (String.length line > 6 && String.sub line 0 7 = "choice ")
         ->
         let k = String.sub line 0 i in
         let v = String.sub line (i + 1) (String.length line - i - 1) in
         let n () = int_of_string v in
         (match k with
         | "invariant" -> expect := v
         | "detail" -> ()
         | "seed" -> cfg := { !cfg with seed = n () }
         | "replicas" -> cfg := { !cfg with replicas = n () }
         | "clients" -> cfg := { !cfg with clients = n () }
         | "writes" -> cfg := { !cfg with writes = n () }
         | "reads" -> cfg := { !cfg with reads = n () }
         | "warmup_us" -> cfg := { !cfg with warmup = Time.us (n ()) }
         | "horizon_us" -> cfg := { !cfg with horizon = Time.us (n ()) }
         | "settle_us" -> cfg := { !cfg with settle = Time.us (n ()) }
         | "max_branch" -> cfg := { !cfg with max_branch = n () }
         | "crash_budget" -> cfg := { !cfg with crash_budget = n () }
         | "crash_window" -> cfg := { !cfg with crash_window = n () }
         | "restart_after_us" ->
           cfg :=
             {
               !cfg with
               restart_after = (if n () < 0 then None else Some (Time.us (n ())));
             }
         | "drop_budget" -> cfg := { !cfg with drop_budget = n () }
         | "drop_paxos_only" ->
           cfg := { !cfg with drop_paxos_only = bool_of_string v }
         | "deliver_branch" ->
           cfg := { !cfg with deliver_branch = bool_of_string v }
         | "delays" ->
           cfg :=
             {
               !cfg with
               delays =
                 Array.of_list
                   (List.map int_of_string (String.split_on_char ',' v));
             }
         | "read_fastpath" ->
           cfg := { !cfg with read_fastpath = bool_of_string v }
         | "pool_workers" -> cfg := { !cfg with pool_workers = n () }
         | "mutation" -> cfg := { !cfg with mutation = mutation_of_name v }
         | _ -> ())
       | _ ->
         (match String.split_on_char ' ' line with
         | "choice" :: spec :: _ -> (
           match String.split_on_char '/' spec with
           | [ taken; _width ] -> forced := int_of_string taken :: !forced
           | _ -> ())
         | _ -> ())
     done
   with End_of_file -> ());
  close_in ic;
  (!cfg, Array.of_list (List.rev !forced), !expect)

(* Re-execute a recorded counterexample: one run, forced along the trace,
   optionally with its mutation overridden — e.g. with [No_mutation] to
   confirm it is discriminating (the same schedule is clean on fixed
   code). *)
let replay ?mutation path =
  let cfg, forced, expect = read_trace path in
  let cfg = { cfg with mutation = Option.value mutation ~default:cfg.mutation } in
  (cfg, expect, (run_one cfg ~forced).x_verdict)

(* ------------------------------------------------------------------ *)
(* Checked exploration                                                 *)

type replayed =
  | Reproduced  (** the written trace replays to the violation it records *)
  | Diverged of string * string  (** it replays to another violation *)
  | Lost  (** it replays clean *)

type check = {
  k_outcome : outcome;
  k_replay : replayed option;  (** [None]: no violation, or no trace written *)
}

(* Explore [cfg]; on a violation with a [trace] path, write the
   counterexample there and re-execute it from the file alone, so a
   counterexample only counts as reproducible when its file is. *)
let check ?trace cfg =
  let o = explore cfg in
  let replay_from path v =
    write_trace cfg v path;
    match replay path with
    | _, expect, Some (inv, _) when inv = expect && expect = v.v_invariant -> Reproduced
    | _, _, Some (inv, detail) -> Diverged (inv, detail)
    | _, _, None -> Lost
  in
  {
    k_outcome = o;
    k_replay =
      (match (o.o_violation, trace) with
      | Some v, Some path -> Some (replay_from path v)
      | _ -> None);
  }

(* A clean config passes with no violation; a mutated one ([must_fail])
   only when the bug is found and any counterexample written replays. *)
let passed ~must_fail k =
  match (k.k_outcome.o_violation, k.k_replay) with
  | None, _ -> not must_fail
  | Some _, (None | Some Reproduced) -> must_fail
  | Some _, Some (Diverged _ | Lost) -> false

type step = { s_name : string; s_cfg : config; s_trace : string; s_must_fail : bool }

(* The smoke matrix: the default config with and without a crash must
   explore to its bound cleanly, and both reintroduced paxos bugs must be
   killed with a counterexample that replays. *)
let smoke ~seed =
  let clean name cfg =
    { s_name = name; s_cfg = cfg; s_trace = "mc_" ^ name ^ ".trace"; s_must_fail = false }
  in
  let mutant m file =
    {
      s_name = "mutate:" ^ mutation_name m;
      s_cfg = { (mutation_preset m) with seed };
      s_trace = file;
      s_must_fail = true;
    }
  in
  [
    clean "clean" { default with seed };
    clean "clean-crash" { default with seed; clients = 1; crash_budget = 1; crash_window = 6 };
    mutant Hole_backfill "mc_hole_backfill.trace";
    mutant Dup_accept "mc_dup_accept.trace";
  ]
