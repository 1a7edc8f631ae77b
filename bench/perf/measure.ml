(** Sample statistics with the reporting rules the benchmark follows:
    nearest-rank percentiles, a percentile reported only when at least
    ten samples lie beyond it, and medians with quartiles for host-time
    repetitions. *)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest rank: the smallest sample with at least [p] of the samples at
   or below it.  The epsilon absorbs binary fractions like 0.99. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil ((p *. float n) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.percentile: no samples"
  else sorted.(rank ~n p - 1)

(** Samples strictly beyond the [p] percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(** A percentile is reported only when at least ten samples lie beyond
    it: p99 needs 1000 samples. *)
let supported ~n p = n > 0 && beyond ~n p >= 10

let median l = percentile (sorted_floats l) 0.5

(** Quartiles as Python's [statistics.quantiles(values, n=4)] computes
    them (the "exclusive" method), so spreads printed here match an
    outside check of the same numbers.  Needs two samples or more. *)
let quartiles l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n < 2 then invalid_arg "Measure.quartiles: need two samples"
  else
    let q j =
      let m = float (n + 1) *. float j /. 4.0 in
      let i = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float i in
      a.(i - 1) +. ((a.(i) -. a.(i - 1)) *. delta)
    in
    (q 1, q 2, q 3)

(** Relative spread of repeated measurements: (q3 - q1) / median. *)
let spread l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let q1, q2, q3 = quartiles l in
    if q2 = 0.0 then 0.0 else (q3 -. q1) /. q2

(** Log-scale bisection for the highest rate that passes: exactly
    [probes] calls of [pass], each at a whole-number rate, the first at
    the geometric middle of [lo, hi].  Returns the highest passing rate
    probed, or [None] if none passed.  Deterministic when [pass] is. *)
let bisect ~lo ~hi ~probes pass =
  let rec go lo hi k best =
    if k = 0 then best
    else
      let mid = Float.round (sqrt (lo *. hi)) in
      if pass mid then go mid hi (k - 1) (Some mid) else go lo mid (k - 1) best
  in
  go lo hi probes None
