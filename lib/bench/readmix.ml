(** The lease/backup read fast path against all-consensus reads, on a
    read-heavy mix.

    One measured configuration is a 3-replica Paxos_only ledger cluster
    under a closed-loop 95/5 read/write mix.  [fastpath] selects the
    read route: the proxy read port (lease reads on the primary,
    bounded-stale on backups, consensus fallback on REJECT), or the
    all-consensus funnel every request used before the split. *)

open Harness
module Proxy = Crane_core.Proxy

let read_pct = 95

let run_one ~case ~seed ~requests ~fastpath =
  let cfg = { (fast_cfg ~mode:Instance.Paxos_only ~port:80) with read_fastpath = fastpath } in
  (* Let the election settle and the first lease establish, so the mix
     measures the steady state rather than boot-time REJECT fallbacks. *)
  let load, cluster =
    on_cluster ~settle:(Time.ms 800) ~linger:(Time.ms 300) ~timeout:(Time.sec 240) ~seed ~cfg
      ~server:Ledger.server (fun cluster target ->
        (* Two read routes: bounded-stale traffic lands on the backups,
           and every fourth read is a linearizable one served off the
           primary's lease — so the bench exercises both halves of the
           fast path. *)
        let rtarget_stale = Target.cluster_backups cluster ~port:cfg.Instance.read_port in
        let rtarget_lease = Target.cluster cluster ~port:cfg.Instance.read_port in
        let ledger = Ledger.client () in
        let nread = ref 0 in
        let read_request =
          if fastpath then fun _ ~from ->
            incr nread;
            let rtarget = if !nread mod 4 = 0 then rtarget_lease else rtarget_stale in
            Ledger.read_request ~rtarget ~target ~from
          else fun t ~from -> Ledger.consensus_get t ~from
        in
        Loadgen.run ~name:"readmix" ~seed ~think:(Time.ms 2) ~retries:8
          ~retry_backoff:(Time.ms 50) ~read_pct ~read_request ~clients:8 ~requests
          ~request:(Ledger.request ledger) target)
  in
  let committed =
    match Cluster.primary cluster with
    | Some (_, inst) -> Paxos.committed inst.Instance.paxos
    | None -> 0
  in
  let sum f =
    List.fold_left
      (fun acc (_, inst) -> acc + f (Proxy.stats inst.Instance.proxy))
      0 (Cluster.instances cluster)
  in
  let ok = List.length load.Loadgen.latencies in
  Rows.
    [ row case "reads" "count" Higher (float (List.length load.Loadgen.read_latencies));
      row case "writes" "count" Higher (float (List.length load.Loadgen.write_latencies));
      row case "errors" "count" Lower (float load.Loadgen.errors);
      row case "committed" "entries" Lower (float committed);
      (* completions per consensus entry — the commit-path offload: reads
         served from leases/watermarks don't spend a consensus round *)
      row case "offload" "ratio" Higher
        (if committed = 0 then 0.0 else float ok /. float committed);
      row case "read_mean" "ns" Lower (Stats.mean load.Loadgen.read_latencies);
      row case "write_mean" "ns" Lower (Stats.mean load.Loadgen.write_latencies);
      row case "lease_reads" "count" Higher (float (sum (fun s -> s.Proxy.lease_reads)));
      row case "backup_reads" "count" Higher (float (sum (fun s -> s.Proxy.backup_reads)));
      row case "lease_rejects" "count" Lower (float (sum (fun s -> s.Proxy.lease_rejects)));
      row case "wall" "ns" Lower (float load.Loadgen.wall) ]

let requests quick = if quick then 1500 else 3000

let case ~quick route =
  Printf.sprintf "%s (%d%% reads, %d requests)" route read_pct (requests quick)

let run ~quick ~seed =
  let requests = requests quick in
  let fast_case = case ~quick "fast path" and base_case = case ~quick "all consensus" in
  let run case fastpath = run_one ~case ~seed ~requests ~fastpath in
  let fast = run fast_case true and base = run base_case false in
  (* Same seed, fresh cluster: the measurement must be a pure function of
     the seed for the gate (and CI diffs) to mean anything. *)
  let identical = fast = run fast_case true in
  let offload case rows = Rows.find rows case "offload" in
  let b = offload base_case base in
  let ratio = if b = 0.0 then 0.0 else offload fast_case fast /. b in
  fast @ base
  @ Rows.
      [ row fast_case "offload_ratio" "x" Higher ratio;
        flag fast_case "rerun_identical" identical ]

let min_offload_ratio = 2.0

let gates ({ quick; rows; _ } : Rows.t) =
  let fast_case = case ~quick "fast path" in
  let f = Rows.find rows fast_case and b = Rows.find rows (case ~quick "all consensus") in
  [ Rows.at_least "commit-path offload (x)" (f "offload_ratio") min_offload_ratio;
    Rows.at_least "lease reads served" (f "lease_reads") 1.;
    Rows.at_least "backup reads served" (f "backup_reads") 1.;
    Rows.none "request errors, fast path" (f "errors");
    Rows.none "request errors, all consensus" (b "errors");
    Rows.is_set rows fast_case "rerun_identical" ]
