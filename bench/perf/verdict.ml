(** [crane_bench compare]: judge one result file against another, metric
    by metric and workload by workload.

    - Virtual-time metrics and work counts must be identical when both
      files come from the same seed: anything else means the simulation
      stopped being a pure function of its seed.
    - A metric with a bound in [BENCHMARK.json] is worse when it moved
      the wrong way by more than the bound, better when it moved the
      right way by more than the bound, and the same otherwise.  A host
      metric whose repetitions spread wider than the bound on either
      side is unresolved: one run cannot tell it apart from noise. *)

type t = Better | Same | Worse | Unresolved | Differs

let to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Differs -> "DIFFERS"

(** One side of a comparison: the value and the relative spread
    ((q3 - q1) / median) of the repetitions behind it, 0 for one. *)
type side = { value : float; spread : float }

(** Relative change from [a] to [b]. *)
let change a b =
  if a = b then 0.0
  else if a = 0.0 then Float.infinity *. Float.of_int (compare b a)
  else (b -. a) /. Float.abs a

(** The change from [a] to [b], positive when [b] is worse. *)
let worsening ~(better : Metric.better) a b =
  match better with Metric.Lower -> change a b | Metric.Higher -> -.change a b

(** [None] when there is nothing to judge: a host metric without a
    bound, or a virtual one without a bound across different seeds. *)
let judge ~(metric : Metric.t) ~bound ~same_seed (a : side) (b : side) =
  match (metric.Metric.kind, bound) with
  | (Metric.Virtual | Metric.Count), _ when same_seed ->
    Some (if a.value = b.value then Same else Differs)
  | _, None -> None
  | kind, Some bound ->
    let w = worsening ~better:metric.Metric.better a.value b.value in
    if kind = Metric.Host && Float.max a.spread b.spread > bound then Some Unresolved
    else if w > bound then Some Worse
    else if w < -.bound then Some Better
    else Some Same

(** Verdicts that fail the comparison. *)
let failing = function Worse | Differs -> true | Better | Same | Unresolved -> false
