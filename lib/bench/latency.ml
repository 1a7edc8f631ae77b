(** The commit critical path of every server, stage by stage, and the
    what-if latency lab: re-run the same seed with one stage's modeled
    cost scaled and measure the end-to-end delta. *)

open Harness

type whatif = Fsync2x

let all_whatifs = [ ("fsync2x", Fsync2x) ]

let whatif_name w = fst (List.find (fun (_, v) -> v = w) all_whatifs)

let whatif_doc = function Fsync2x -> "WAL fsync device 2x faster"

(* Virtual speedup, Coz-style: instead of sampling and inflating
   everything else, the simulator re-runs the same seed with one stage's
   modeled cost scaled, and the delta is measured end to end. *)
let whatif_cfg (cfg : Instance.config) = function
  | Fsync2x -> { cfg with Instance.wal_write_latency = cfg.Instance.wal_write_latency / 2 }

(** [s]'s closed-loop workload on a CRANE cluster recorded by [trace],
    with [tweak] applied, and the commit critical path of the run. *)
let profiled_run ~trace:tr (s : Servers.t) ~clients ~requests ~seed ~tweak =
  let cp = Critical_path.attach tr in
  let cfg = fast_cfg ~mode:Instance.Full ~port:s.port in
  let cfg = match tweak with None -> cfg | Some w -> whatif_cfg cfg w in
  (* the linger lets trailing closes commit and backup admissions land,
     so the last span DAGs are complete before analysis *)
  ignore
    (on_cluster ~trace:tr ~checkpoints:true ~linger:(Time.ms 500) ~seed ~cfg
       ~server:(s.server ~hints:true) (fun _ ->
         closed_loop ~clients ~requests ~rng:(Rng.create (seed + 1)) s));
  Critical_path.report cp

(* One row of the what-if table: [w]'s end-to-end mean against the base
   run's, in microseconds. *)
let whatif_row ~(base : Critical_path.report) ~(variant : Critical_path.report) w =
  let b = base.Critical_path.e2e and v = variant.Critical_path.e2e in
  let delta = b.Metrics.mean -. v.Metrics.mean in
  [ whatif_name w; whatif_doc w;
    Printf.sprintf "%.1f" (b.Metrics.mean /. 1e3);
    Printf.sprintf "%.1f" (v.Metrics.mean /. 1e3);
    Printf.sprintf "%+.1f" (delta /. 1e3);
    (if b.Metrics.mean > 0.0 then Printf.sprintf "%+.1f%%" (100. *. delta /. b.Metrics.mean)
     else "-") ]

let summary_rows case prefix (s : Metrics.summary) =
  let ns name v = Rows.row case (prefix ^ "." ^ name) "ns" Rows.Lower (float v) in
  [ Rows.row case (prefix ^ ".count") "count" Rows.Higher (float s.Metrics.count);
    ns "p50" s.Metrics.p50; ns "p90" s.Metrics.p90; ns "p99" s.Metrics.p99;
    ns "max" s.Metrics.max;
    Rows.row case (prefix ^ ".mean") "ns" Rows.Lower s.Metrics.mean;
    ns "total" s.Metrics.total ]

let clients quick = if quick then 4 else 8
let requests quick = if quick then 60 else 200

let case ~quick (s : Servers.t) =
  Printf.sprintf "%s (%d clients, %d requests)" s.name (clients quick) (requests quick)

let run ~quick ~seed =
  let clients = clients quick and requests = requests quick in
  let per_server (s : Servers.t) =
    let case = case ~quick s in
    let run tweak =
      profiled_run ~trace:(Trace.create ~retain:false ()) s ~clients ~requests ~seed ~tweak
    in
    let r = run None in
    let whatif (wname, w) =
      let v = run (Some w) in
      let ve = v.Critical_path.e2e.Metrics.mean in
      Rows.
        [ row case (wname ^ ".e2e_mean") "ns" Lower ve;
          row case (wname ^ ".delta") "ns" Higher (r.Critical_path.e2e.Metrics.mean -. ve);
          row case (wname ^ ".coverage") "ratio" Higher v.Critical_path.coverage ]
    in
    Rows.
      [ row case "committed" "count" Higher (float r.Critical_path.committed);
        row case "complete" "count" Higher (float r.Critical_path.complete);
        row case "coverage" "ratio" Higher r.Critical_path.coverage;
        row case "span_errors" "count" Lower (float (List.length r.Critical_path.errors)) ]
    @ summary_rows case "e2e" r.Critical_path.e2e
    @ List.concat_map
        (fun s -> summary_rows case s.Critical_path.stage s.Critical_path.summary)
        r.Critical_path.stages
    @ List.concat_map whatif all_whatifs
  in
  List.concat_map per_server Servers.all

let min_span_coverage = 0.99

let gates ({ quick; rows; _ } : Rows.t) =
  List.concat_map
    (fun (s : Servers.t) ->
      let v = Rows.find rows (case ~quick s) and name = s.name in
      [ Rows.at_least (name ^ ": span coverage") (v "coverage") min_span_coverage;
        Rows.none (name ^ ": malformed span DAGs") (v "span_errors");
        (Printf.sprintf "%s: fsync2x what-if moves e2e mean by %.0f ns (nonzero)" name
           (v "fsync2x.delta"),
         Float.abs (v "fsync2x.delta") > 0.) ])
    Servers.all
