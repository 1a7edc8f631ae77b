(** The SMR safety oracle, shared by the chaos harness and Crane-MC.

    The paper's correctness claim is that every replica runs the same
    inputs in the same order and reaches the same state.  This module is
    the one place that says what that means for a live cluster running
    the {!Ledger} workload:

    - [single-primary-per-view]: two replicas may both lead across views
      (the deposed one has not heard the news), never within one;
    - [committed-prefix-agreement]: every committed entry equals the
      first value any replica was seen to commit at that index;
    - [state-convergence]: no live replica is wedged with
      [applied < committed], and all live server states are equal;
    - [acked-durability]: every client-acked write is in every live
      replica's ledger;
    - [epoch-agreement]: every live replica is in the same configuration
      epoch with the same membership, and is itself a member of it;
    - [no-thread-failures]: no simulated thread died.

    The first two are sampled while a run plays out ({!sample}); the
    rest are terminal checks returning [(name, verdict)], [None] for a
    pass.  Each harness adds the checks only it can run: chaos audits
    output logs, liveness, stale reads and lease fencing, MC audits
    completion and linearizability. *)

module Engine = Crane_sim.Engine
module Time = Crane_sim.Time
module Paxos = Crane_paxos.Paxos
module Cluster = Crane_core.Cluster
module Instance = Crane_core.Instance

type t = {
  reference_log : (int, string) Hashtbl.t;
      (** index -> first-seen committed value *)
  watermarks : (string, int) Hashtbl.t;  (** node -> highest index sampled *)
}

let create () =
  { reference_log = Hashtbl.create 256; watermarks = Hashtbl.create 8 }

let single_primary = "single-primary-per-view"
let prefix_agreement = "committed-prefix-agreement"
let state_of (i : Instance.t) = i.Instance.handle.Crane_core.Api.state_of ()

(* Check the two continuous invariants against the cluster as it stands,
   reporting each violation through [violate name detail]. *)
let sample t cluster ~violate =
  let live = Cluster.instances cluster in
  let primaries =
    List.filter_map
      (fun (node, inst) ->
        if Instance.is_primary inst then Some (node, Paxos.view inst.Instance.paxos)
        else None)
      live
  in
  List.iter
    (fun (node, view) ->
      List.iter
        (fun (node', view') ->
          if node < node' && view = view' then
            violate single_primary
              (Printf.sprintf "%s and %s both primary in view %d at %s" node node'
                 view
                 (Time.to_string (Engine.now (Cluster.engine cluster)))))
        primaries)
    primaries;
  List.iter
    (fun (node, inst) ->
      let px = inst.Instance.paxos in
      let hi = Paxos.committed px in
      (* start above both the last-sampled index and the replica's
         compaction base: entries at or below the base have been freed,
         and the range lookup would return nothing for them *)
      let lo =
        max
          (1 + Option.value (Hashtbl.find_opt t.watermarks node) ~default:0)
          (Paxos.base px + 1)
      in
      if hi >= lo then begin
        List.iteri
          (fun i value ->
            let idx = lo + i in
            match Hashtbl.find_opt t.reference_log idx with
            | None -> Hashtbl.replace t.reference_log idx value
            | Some expect ->
              if expect <> value then
                violate prefix_agreement
                  (Printf.sprintf "%s disagrees at index %d" node idx))
          (Paxos.get_committed_range px ~lo ~hi);
        Hashtbl.replace t.watermarks node hi
      end)
    live

(* Full recheck of every still-resident committed entry: catches
   divergence the incremental watermark pass would miss after a restart.
   Compacted prefixes (at or below the base) are gone from the log by
   design, so the recheck starts just above the base. *)
let committed_prefix t cluster =
  let diverged (node, inst) =
    let px = inst.Instance.paxos in
    let lo = Paxos.base px + 1 in
    let rec first idx = function
      | [] -> None
      | value :: rest -> (
        match Hashtbl.find_opt t.reference_log idx with
        | Some expect when expect <> value ->
          Some (Printf.sprintf "%s diverged at index %d" node idx)
        | Some _ | None -> first (idx + 1) rest)
    in
    if Paxos.committed px < lo then None
    else first lo (Paxos.get_committed_range px ~lo ~hi:(Paxos.committed px))
  in
  (prefix_agreement, List.find_map diverged (Cluster.instances cluster))

let state_convergence cluster =
  ( "state-convergence",
    match Cluster.instances cluster with
    | [] -> Some "no live replicas"
    | (n0, i0) :: rest as live -> (
      let behind (_, i) =
        Paxos.applied i.Instance.paxos < Paxos.committed i.Instance.paxos
      in
      match List.find_opt behind live with
      | Some (n, i) ->
        Some
          (Printf.sprintf "%s wedged at applied=%d < committed=%d" n
             (Paxos.applied i.Instance.paxos)
             (Paxos.committed i.Instance.paxos))
      | None -> (
        let s0 = state_of i0 in
        match List.find_opt (fun (_, i) -> state_of i <> s0) rest with
        | Some (n, _) -> Some (Printf.sprintf "%s and %s disagree" n0 n)
        | None -> None)) )

let acked_durability cluster ~acked =
  let acked = List.sort compare acked in
  let missing (node, inst) =
    let present = Hashtbl.create 64 in
    List.iter
      (fun id -> Hashtbl.replace present id ())
      (Ledger.ids_of_state (state_of inst));
    List.find_opt (fun id -> not (Hashtbl.mem present id)) acked
    |> Option.map (fun id -> Printf.sprintf "acked %s missing on %s" id node)
  in
  ("acked-durability", List.find_map missing (Cluster.instances cluster))

(* A fenced replica that kept serving, or a joiner stuck on a stale
   config, shows up here. *)
let epoch_agreement cluster =
  let infos =
    List.map
      (fun (n, i) ->
        ( n,
          Paxos.epoch i.Instance.paxos,
          List.sort compare (Paxos.members i.Instance.paxos) ))
      (Cluster.instances cluster)
  in
  ( "epoch-agreement",
    match infos with
    | [] -> Some "no live replicas"
    | (n0, e0, m0) :: rest -> (
      match List.find_opt (fun (_, e, m) -> e <> e0 || m <> m0) rest with
      | Some (n, e, _) ->
        Some
          (Printf.sprintf "%s at epoch %d disagrees with %s at epoch %d" n e n0
             e0)
      | None ->
        List.find_opt (fun (n, _, _) -> not (List.mem n m0)) infos
        |> Option.map (fun (n, _, _) ->
               Printf.sprintf "%s is live but not a member of epoch %d" n e0)) )

let thread_failures cluster =
  ( "no-thread-failures",
    match Engine.failures (Cluster.engine cluster) with
    | [] -> None
    | (name, e) :: _ ->
      Some (Printf.sprintf "thread %s died: %s" name (Printexc.to_string e)) )

(* Quorum guard against the configuration currently in force, not the
   boot-time member list: after a reconfiguration the old list would both
   under-count (freshly joined replicas are real voters) and over-count
   (a fenced instance still winding down is not).  Only live replicas
   that are members of the current epoch contribute to the quorum. *)
let quorum_safe_to_kill cluster =
  let members = Cluster.members cluster in
  let voters =
    List.filter (fun (n, _) -> List.mem n members) (Cluster.instances cluster)
  in
  List.length voters - 1 >= (List.length members / 2) + 1
