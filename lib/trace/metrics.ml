(** Aggregation over trace events: monotonic counters and virtual-time
    histograms with percentile summaries (the number-crunching side of
    the flight recorder).

    Histograms are fed by span pairs: a [Begin]/[End] pair of the same
    (node, tid, cat, name) or an [Async_begin]/[Async_end] pair of the
    same (cat, name, id) contributes one duration sample under
    ["cat.name"] (per-replica attribution can be kept with [per_node]).
    [Instant] events increment the counter ["cat.name"]; [Counter]
    samples stay in the exported trace only.

    Attach to a live recorder with {!attach} before the run: the
    aggregation streams, so the recorder need not retain anything. *)

module Stats = Crane_report.Stats

type summary = {
  count : int;
  total : int;  (** summed virtual ns *)
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type t = {
  per_node : bool;  (** prefix histogram/counter keys with "node/" *)
  counts : (string, int ref) Hashtbl.t;
  samples : (string, int list ref) Hashtbl.t;  (** newest first *)
  open_spans : (string * int * string * string, int list ref) Hashtbl.t;
      (** (node, tid, cat, name) -> begin-ts stack *)
  open_async : (string * string * int, int) Hashtbl.t;
      (** (cat, name, id) -> begin ts *)
}

let create ?(per_node = false) () =
  {
    per_node;
    counts = Hashtbl.create 64;
    samples = Hashtbl.create 64;
    open_spans = Hashtbl.create 64;
    open_async = Hashtbl.create 64;
  }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counts name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counts name (ref by)

let observe t name v =
  match Hashtbl.find_opt t.samples name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add t.samples name (ref [ v ])

(* ------------------------------------------------------------------ *)

let key t ~node ~cat ~name =
  let base = cat ^ "." ^ name in
  if t.per_node && node <> "" then node ^ "/" ^ base else base

let ingest t tr (ev : Trace.ev) =
  let node = Trace.resolve_node tr ev in
  let cat, name, _ = Trace.describe ev in
  match ev.ph with
  | Instant -> incr t (key t ~node ~cat ~name)
  | Counter _ -> ()
  | Begin -> (
    let k = (node, ev.tid, cat, name) in
    match Hashtbl.find_opt t.open_spans k with
    | Some stack -> stack := ev.ts :: !stack
    | None -> Hashtbl.add t.open_spans k (ref [ ev.ts ]))
  | End -> (
    let k = (node, ev.tid, cat, name) in
    match Hashtbl.find_opt t.open_spans k with
    | Some ({ contents = t0 :: rest } as stack) ->
      stack := rest;
      observe t (key t ~node ~cat ~name) (ev.ts - t0)
    | Some _ | None -> () (* unmatched End: dropped Begin or truncated trace *))
  | Async_begin id -> Hashtbl.replace t.open_async (cat, name, id) ev.ts
  | Async_end id -> (
    let k = (cat, name, id) in
    match Hashtbl.find_opt t.open_async k with
    | Some t0 ->
      Hashtbl.remove t.open_async k;
      observe t (key t ~node ~cat ~name) (ev.ts - t0)
    | None -> ())

let attach t tr = Trace.add_sink tr (fun ev -> ingest t tr ev)

(* ------------------------------------------------------------------ *)

let counter_value t name =
  match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

(* Degenerate series are answered directly instead of trusting the
   percentile machinery with them: an empty series is all zeros (callers
   that care use {!summary}, which returns [None]), a singleton is the
   sample at every percentile. *)
let summarize samples =
  match samples with
  | [] -> { count = 0; total = 0; mean = 0.0; p50 = 0; p90 = 0; p99 = 0; max = 0 }
  | [ v ] -> { count = 1; total = v; mean = float_of_int v; p50 = v; p90 = v; p99 = v; max = v }
  | _ -> (
    let count = List.length samples in
    let total = List.fold_left ( + ) 0 samples in
    match Stats.percentiles [ 0.5; 0.9; 0.99; 1.0 ] samples with
    | [ p50; p90; p99; max ] ->
      { count; total; mean = Stats.mean samples; p50; p90; p99; max }
    | _ -> { count; total; mean = 0.0; p50 = 0; p90 = 0; p99 = 0; max = 0 })

let summary t name =
  match Hashtbl.find_opt t.samples name with
  | Some { contents = [] } | None -> None
  | Some r -> Some (summarize !r)

let total t name = match summary t name with Some s -> s.total | None -> 0

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = sorted_bindings t.counts (fun r -> !r)
let summaries t = sorted_bindings t.samples (fun r -> summarize !r)

(* ------------------------------------------------------------------ *)
(* Cluster-wide aggregation: fold per-replica aggregations into one, so
   percentiles can be computed over the union of each replica's samples
   instead of eyeballing three separate tables. *)

let merge ~into src =
  Hashtbl.iter (fun k r -> incr into ~by:!r k) src.counts;
  Hashtbl.iter
    (fun k r ->
      match Hashtbl.find_opt into.samples k with
      | Some dst -> dst := !r @ !dst
      | None -> Hashtbl.add into.samples k (ref !r))
    src.samples

let merged ts =
  let t = create () in
  List.iter (fun src -> merge ~into:t src) ts;
  t
