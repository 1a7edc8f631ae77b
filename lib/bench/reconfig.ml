(** Client-visible unavailability during a live replica replacement:
    kill the primary under load, then commit a membership change that
    swaps the dead replica for a fresh one.  The workload never stops:
    the gap analysis over its completion instants is the availability
    measurement (the paper's criterion: failures must be masked from
    clients). *)

open Harness

let max_gap instants =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (max acc (b - a)) rest
    | _ -> acc
  in
  go Time.zero instants

let run_one ~case ~seed ~requests =
  let cfg =
    { Instance.default_config with
      paxos =
        { Paxos.default_config with
          Paxos.heartbeat_period = Time.ms 100; election_timeout = Time.ms 300;
          election_jitter = Time.ms 50; round_retry = Time.ms 100 };
      checkpoint_period = Time.sec 2 }
  in
  let kill_at = Time.ms 1200 in
  let dead = ref "" in
  let load, cluster =
    (* after the load, let the replacement finish joining and catching up *)
    on_cluster ~checkpoints:true ~settle:(Time.ms 200) ~linger:(Time.sec 3)
      ~timeout:(Time.sec 120) ~seed ~cfg ~server:Ledger.server (fun cluster target ->
        let eng = Cluster.engine cluster in
        Engine.at eng kill_at (fun () ->
            match Cluster.primary_node cluster with
            | Some p ->
              dead := p;
              Cluster.kill cluster p;
              Engine.after eng (Time.ms 200) (fun () ->
                  Cluster.replace_replica cluster ~dead:p ~fresh:"replica4")
            | None -> ());
        Loadgen.run ~name:"reconfig" ~seed ~think:(Time.ms 2) ~retries:8
          ~retry_backoff:(Time.ms 50) ~clients:6 ~requests
          ~request:(Ledger.request (Ledger.client ())) target)
  in
  let before = List.filter (fun t -> t < kill_at) load.Loadgen.completions in
  let last = List.fold_left max Time.zero load.Loadgen.completions in
  Rows.
    [ row case "ok" "count" Higher (float (List.length load.Loadgen.latencies));
      row case "errors" "count" Lower (float load.Loadgen.errors);
      row case "retries" "count" Lower (float load.Loadgen.retries);
      row case "epoch" "count" Higher (float (Cluster.current_epoch cluster));
      (* widest gap between successful completions before the primary
         dies: the no-fault baseline *)
      row case "steady_gap" "ns" Lower (float (max_gap before));
      (* widest gap across the whole run: the client-visible outage
         spanning the crash, the election and the membership change *)
      row case "unavailability" "ns" Lower (float (max_gap load.Loadgen.completions));
      row case "wall" "ns" Lower (float load.Loadgen.wall);
      (* the replacement is live and a member at the end *)
      flag case "healed"
        (Cluster.instance cluster "replica4" <> None
        && List.mem "replica4" (Cluster.members cluster)
        && (not (List.mem !dead (Cluster.members cluster)))
        && Cluster.primary_node cluster <> None);
      (* the workload was still running when the primary died: without
         this the gap analysis would measure nothing *)
      flag case "spans_fault" (last > kill_at) ]

let requests quick = if quick then 4000 else 8000

let case quick =
  Printf.sprintf "kill and replace the primary (6 clients, %d requests)" (requests quick)

let run ~quick ~seed =
  let requests = requests quick and case = case quick in
  let rows = run_one ~case ~seed ~requests in
  (* Same seed, fresh cluster: the availability measurement must be a pure
     function of the seed for the gate (and CI diffs) to mean anything. *)
  rows @ [ Rows.flag case "rerun_identical" (rows = run_one ~case ~seed ~requests) ]

let max_unavailability_ms = 1500.

let gates ({ quick; rows; _ } : Rows.t) =
  let case = case quick in
  let v = Rows.find rows case in
  [ Rows.none "request errors" (v "errors");
    Rows.at_least "membership epoch" (v "epoch") 1.;
    Rows.at_most "unavailability (ms)" (v "unavailability" /. 1e6) max_unavailability_ms ]
  @ List.map (Rows.is_set rows case) [ "healed"; "spans_fault"; "rerun_identical" ]
