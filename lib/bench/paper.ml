(** The paper's evaluation (§7) as bench rows: Figures 14–17, Tables 1–2,
    output consistency under plan I vs plan II (§7.2) and failover
    (§7.6), for every server in {!Servers} at its paper run size ([quick]
    runs a quarter of the requests).

    Absolute numbers come from the simulator's calibrated cost models;
    the claims under reproduction are the shapes — who wins, by what
    rough factor, where the trade-offs fall.  {!gates} checks the shapes
    the reproduction matches; the rest (the mean overhead, mysql's
    Paxos-only cost, the §7.6 errors) are drift-checked rows only, and
    EXPERIMENTS.md lists them as deviations. *)

open Harness
module Manager = Crane_checkpoint.Manager

(* [s]'s closed-loop paper workload, at its own client count. *)
let load ~rng ~requests (s : Servers.t) = closed_loop ~clients:s.clients ~requests ~rng s

let median (r : Loadgen.result) = Stats.median r.Loadgen.latencies

let standalone ~seed ~requests ~mode (s : Servers.t) =
  let hints = mode = Standalone.Parrot && s.hints_available in
  median
    (on_standalone ~timeout:s.timeout ~seed ~mode ~server:(s.server ~hints) ~port:s.port
       (load ~rng:(Rng.create (seed + 5)) ~requests s))

let cluster ~seed ~requests ?(hints = true) ?wtimeout ?nclock ?trace ~mode (s : Servers.t) =
  on_cluster ?trace ~timeout:s.timeout ~seed ~cfg:(cluster_cfg ?wtimeout ?nclock ~mode s)
    ~server:(s.server ~hints:(hints && s.hints_available))
    (fun _ -> load ~rng:(Rng.create (seed + 5)) ~requests s)

let bit b = if b then 1. else 0.

(* Figures 14 and 15, the overhead attribution, Table 1 and plan I of
   §7.2: every number of one server's CRANE run against its baselines.
   Returns the CRANE median too, the normalization point of the
   sweeps. *)
let fig14 ~seed ~requests ~case (s : Servers.t) =
  let row m unit better v = Rows.row case m unit better v in
  let pct m v = row m "%" Rows.Higher v in
  let native = standalone ~seed ~requests ~mode:Standalone.Native s in
  let norm t = Stats.normalized_pct ~baseline:native ~system:t in
  let overhead t = Stats.overhead_pct ~baseline:native ~system:t in
  let parrot = standalone ~seed ~requests ~mode:Standalone.Parrot s in
  let paxos_only = median (fst (cluster ~seed ~requests ~mode:Instance.Paxos_only s)) in
  (* The CRANE run carries the flight recorder: a non-retaining trace
     streamed straight into a per-replica aggregation, so even the full
     workloads cost O(1) memory in events. *)
  let tr = Trace.create ~retain:false () in
  let met = Metrics.create ~per_node:true () in
  Metrics.attach met tr;
  let r, cl = cluster ~seed ~requests ~trace:tr ~mode:Instance.Full s in
  let crane = median r in
  let prim = Option.value (Cluster.primary_node cl) ~default:"replica1" in
  let nohints =
    if s.hints_available then
      let t = median (fst (cluster ~seed ~requests ~hints:false ~mode:Instance.Full s)) in
      [ pct "nohints_pct" (norm t); row "overhead_nohints_pct" "%" Lower (overhead t) ]
    else []
  in
  (* Where a CRANE request's latency goes on the primary: PAXOS consensus
     waits (propose to apply), the vhost admission gate and DMT turn
     waits, per served request.  "compute" is the median's residual once
     consensus and gate waits are taken out (clamped at zero: turn waits
     also cover idle workers parked between requests). *)
  let wait key =
    float (Metrics.total met (prim ^ "/" ^ key))
    /. 1e6 /. float (max 1 (List.length r.Loadgen.latencies))
  in
  let ms m v = row m "ms" Rows.Lower v in
  let calls, bubbles =
    match Cluster.instances cl with (_, inst) :: _ -> Instance.seq_stats inst | [] -> (0, 0)
  in
  ( crane,
    [ ms "native_ms" (Time.to_float_ms native); pct "parrot_pct" (norm parrot);
      pct "paxos_only_pct" (norm paxos_only); pct "crane_pct" (norm crane);
      ms "crane_ms" (Time.to_float_ms crane) ]
    @ nohints
    @ [ row "overhead_pct" "%" Lower (overhead crane);
        ms "paxos_wait_ms" (wait "paxos.decide"); ms "gate_wait_ms" (wait "gate.block");
        ms "dmt_turn_wait_ms" (wait "dmt.turn_wait");
        ms "compute_ms"
          (Float.max 0. (Time.to_float_ms crane -. wait "paxos.decide" -. wait "gate.block"));
        row "calls" "count" Higher (float calls); row "bubbles" "count" Lower (float bubbles);
        row "bubble_pct" "%" Lower
          (100. *. float bubbles /. float (max 1 (calls + bubbles)));
        row "plan1_consistent" "0/1" Higher (bit (consistent cl)) ] )

(* Every server at its paper run size ([quick] runs a quarter of the
   requests), with the case its rows carry. *)
let sized quick =
  let scale = if quick then 4 else 1 in
  List.map
    (fun (s : Servers.t) ->
      let requests = max 4 (s.requests / scale) in
      (s, requests, Printf.sprintf "%s (%d clients, %d requests)" s.name s.clients requests))
    Servers.all

(* Table 2 runs a quarter of [s]'s [requests]. *)
let checkpoint_requests requests = max 4 (requests / 4)

let checkpoint_case (s : Servers.t) requests =
  Printf.sprintf "%s checkpoint (%d clients, %d requests)" s.name s.clients
    (checkpoint_requests requests)

(* Table 2: checkpoint and then restore the first backup after a short
   workload.  No rows when the pair does not complete within 300 s. *)
let table2 ~seed ~requests (s : Servers.t) =
  let _, cl =
    on_cluster ~timeout:s.timeout ~seed ~cfg:(cluster_cfg ~mode:Instance.Full s)
      ~server:(s.server ~hints:s.hints_available)
      (fun _ -> load ~rng:(Rng.create 99) ~requests:(checkpoint_requests requests) s)
  in
  let result = ref None in
  (match Cluster.instances cl with
  | _ :: (_, backup) :: _ ->
    let eng = Cluster.engine cl in
    Engine.spawn eng ~name:"bench-ckpt" (fun () ->
        match Manager.checkpoint_now backup.Instance.manager with
        | Some ckpt ->
          let _, rt = Manager.restore backup.Instance.manager ckpt in
          result := Some (ckpt.Manager.timings, rt)
        | None -> ());
    Loadgen.step_until eng ~step:(Time.sec 2) ~deadline:(Engine.now eng + Time.sec 300) (fun () ->
        !result <> None)
  | _ -> ());
  Cluster.check_failures cl;
  let case = checkpoint_case s requests in
  let ms m t = Rows.row case m "ms" Rows.Lower (Time.to_float_ms t) in
  match !result with
  | Some ({ Manager.c_process; c_fs }, { Manager.r_process; r_fs }) ->
    [ ms "c_p_ms" c_process; ms "r_p_ms" r_process; ms "c_fs_ms" c_fs; ms "r_fs_ms" r_fs ]
  | None -> []

(* §7.6: kill the primary under load with the paper's 1 s heartbeat /
   3 s election timeout, restart it from a checkpoint, and time the
   election and the old primary's re-join.  Clients do not retry, so a
   request in flight at the crash fails. *)
let failover ~seed (s : Servers.t) =
  let clients = 4 and requests = 600 in
  let cfg =
    { (cluster_cfg ~mode:Instance.Full s) with
      paxos = Paxos.default_config; checkpoint_period = Time.sec 2 }
  in
  let restart_at = Time.sec 12 in
  let rejoin = ref None in
  let r, cl =
    on_cluster ~checkpoints:true ~linger:(Time.sec 10) ~timeout:(Time.sec 300) ~seed ~cfg
      ~server:(s.server ~hints:true) (fun cl target ->
        let handle =
          Loadgen.run ~think:(Time.ms 40) ~clients ~requests
            ~request:(s.request (Rng.create (seed + 5))) target
        in
        let eng = Cluster.engine cl in
        Engine.at eng (Time.sec 5) (fun () -> Cluster.kill cl "replica1");
        Engine.at eng restart_at (fun () ->
            ignore (Cluster.restart cl "replica1");
            (* Poll until the restarted node adopts the current view. *)
            let rec watch () =
              Engine.after eng (Time.ms 10) (fun () ->
                  match (Cluster.instance cl "replica1", Cluster.primary cl) with
                  | Some inst, Some (_, prim)
                    when Paxos.view inst.Instance.paxos = Paxos.view prim.Instance.paxos ->
                    rejoin := Some (Engine.now eng - restart_at)
                  | _ -> watch ())
            in
            watch ());
        handle)
  in
  let election =
    Option.bind (Cluster.primary cl) (fun (_, p) ->
        (Paxos.stats p.Instance.paxos).Paxos.last_election_duration)
  in
  let case = Printf.sprintf "%s failover (%d clients, %d requests)" s.name clients requests in
  let ms m t =
    Option.to_list (Option.map (fun t -> Rows.row case m "ms" Lower (Time.to_float_ms t)) t)
  in
  ms "election_ms" election @ ms "rejoin_ms" !rejoin
  @ Rows.
      [ row case "served" "count" Higher (float (List.length r.Loadgen.latencies));
        row case "errors" "count" Lower (float r.Loadgen.errors) ]

(* ---- gates: the paper's shapes that the reproduction matches ---- *)

let min_paxos_only_pct = 97.
let min_hints_cut = 4.

(** The shapes of §7 the reproduction matches, with constant bounds,
    over the rows of a run of size [quick]. *)
let gates ({ quick; rows; _ } : Rows.t) : Rows.gate list =
  let sized n = List.find (fun ((s : Servers.t), _, _) -> s.name = n) (sized quick) in
  let v n metric =
    let _, _, case = sized n in
    Rows.find rows case metric
  and ck n metric =
    let s, requests, _ = sized n in
    Rows.find rows (checkpoint_case s requests) metric
  in
  let all = List.map (fun (s : Servers.t) -> s.name) Servers.all in
  let next =
    List.fold_left (fun acc n -> if n = "mysql" then acc else Float.min acc (v n "crane_pct"))
      infinity all
  in
  List.map
    (fun n ->
      Rows.at_least (n ^ ": Paxos-only % of native") (v n "paxos_only_pct") min_paxos_only_pct)
    [ "apache"; "mongoose"; "clamav"; "mediatomb" ]
  @ List.map
      (fun n ->
        Rows.at_least (n ^ ": hints cut CRANE overhead (x)")
          (v n "overhead_nohints_pct" /. v n "overhead_pct") min_hints_cut)
      [ "apache"; "mongoose" ]
  @ [ ( Printf.sprintf "mysql has the lowest CRANE %%: %.4g < %.4g" (v "mysql" "crane_pct") next,
        v "mysql" "crane_pct" < next ) ]
  @ List.map (fun n -> (n ^ ": plan I outputs consistent", v n "plan1_consistent" = 1.)) all
  @ List.map
      (fun n -> (n ^ ": plan II outputs diverge", v n "plan2_diverged" = 1.))
      [ "clamav"; "mysql" ]
  @ List.map
      (fun n -> (n ^ ": checkpoint+restore completes", not (Float.is_nan (ck n "r_fs_ms"))))
      all
  @ List.map
      (fun n ->
        ( Printf.sprintf "%s: C_fs %.4g > C_p %.4g" n (ck n "c_fs_ms") (ck n "c_p_ms"),
          ck n "c_fs_ms" > ck n "c_p_ms" ))
      all

(** Every row of the evaluation. *)
let run ~quick ~seed =
  let sized = sized quick in
  let fig14 = List.map (fun (s, requests, case) -> fig14 ~seed ~requests ~case s) sized in
  let overheads =
    List.map2 (fun (_, _, case) (_, rows) -> Rows.find rows case "overhead_pct") sized fig14
  in
  let mean = List.fold_left ( +. ) 0. overheads /. float (List.length overheads) in
  (* plan II: time bubbling disabled *)
  let plan2 (s, requests, case) =
    let _, cl = cluster ~seed ~requests ~mode:Instance.No_bubbling s in
    Rows.row case "plan2_diverged" "0/1" Higher (bit (not (consistent cl)))
  in
  (* Figures 16 and 17: CRANE's median under each non-default setting,
     normalized to the default's. *)
  let sweep metric values run =
    List.concat
      (List.map2
         (fun (s, requests, case) (crane, _) ->
           List.map
             (fun (label, v) ->
               let t = median (fst (run ~requests s v)) in
               Rows.row case (Printf.sprintf "%s_%s_pct" metric label) "%" Higher
                 (Stats.normalized_pct ~baseline:crane ~system:t))
             values)
         sized fig14)
  in
  let us n = (Printf.sprintf "%dus" n, Time.us n) in
  List.concat_map snd fig14
  @ Rows.[ row "all servers" "mean_crane_overhead_pct" "%" Lower mean ]
  @ List.map plan2 sized
  @ sweep "wtimeout" [ us 1; us 10; us 1000; us 10000 ] (fun ~requests s wtimeout ->
        cluster ~seed ~requests ~wtimeout ~mode:Instance.Full s)
  @ sweep "nclock" [ ("100", 100); ("10000", 10000) ] (fun ~requests s nclock ->
        cluster ~seed ~requests ~nclock ~mode:Instance.Full s)
  @ List.concat_map (fun (s, requests, _) -> table2 ~seed ~requests s) sized
  @ failover ~seed (Servers.find "mongoose")
