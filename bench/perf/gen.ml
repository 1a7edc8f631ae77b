(** Workload inputs: open-loop Poisson arrival schedules and request
    mixes.

    A schedule is a pure function of the workload seed and the workload
    name.  It never draws from the cluster's generator, so changing the
    cluster seed (or anything the simulated system does) leaves the
    arrivals, keys and read/write mix untouched. *)

module Rng = Crane_sim.Rng
module Time = Crane_sim.Time

type op =
  | Select of { table : int; id : int }  (** point SQL read *)
  | Update of { table : int; id : int; value : int }  (** point SQL write *)
  | Put  (** ledger append of a fresh id *)
  | Get of { lease : bool }
      (** ledger read on the read port: a lease read on the primary, or a
          bounded-stale read on a backup *)

type arrival = { due : Time.t;  (** offset from the first arrival *) op : op }

let is_write = function Update _ | Put -> true | Select _ | Get _ -> false

(* One stream per (seed, workload): two workloads with the same seed do
   not share draws. *)
let rng ~seed ~stream = Rng.create ((seed * 1_000_003) lxor Hashtbl.hash stream)

(* Inter-arrival gaps of a unit-rate Poisson process, cumulated: scaling
   by 1/rate gives the same arrival pattern at any rate, which keeps the
   capacity probes of one seed comparable. *)
let unit_offsets rng n =
  let t = ref 0.0 in
  Array.init n (fun i ->
      if i > 0 then t := !t +. Rng.exponential rng 1.0;
      !t)

let poisson rng ~rate n =
  Array.map (fun x -> Time.of_float_sec (x /. rate)) (unit_offsets rng n)

(* Exactly [k] of [n] flags set, in seeded random positions: exact mix
   counts give every subset percentile a fixed sample count. *)
let exact_mix rng n ~k =
  let a = Array.init n (fun i -> i < k) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let tables = 16
let rows = 2_000

(** SQL point statements: [write_pct]% [UPDATE], the rest [SELECT], keys
    uniform over [tables] x [rows]. *)
let oltp ~seed ~rate ~write_pct n =
  let r = rng ~seed ~stream:"oltp" in
  let dues = poisson (Rng.split r) ~rate n in
  let writes = exact_mix (Rng.split r) n ~k:(n * write_pct / 100) in
  let keys = Rng.split r in
  Array.mapi
    (fun i due ->
      let table = 1 + Rng.int keys tables in
      let id = 1 + Rng.int keys rows in
      let op =
        if writes.(i) then Update { table; id; value = Rng.int keys 1_000_000 }
        else Select { table; id }
      in
      { due; op })
    dues

(** Ledger appends only. *)
let puts ~seed ~stream ~rate n =
  let dues = poisson (rng ~seed ~stream) ~rate n in
  Array.map (fun due -> { due; op = Put }) dues

let lease_every = 4

(** Ledger read mix: [write_pct]% [PUT]; one read in [lease_every] (in
    arrival order) is a lease read, the rest are backup reads. *)
let readmix ~seed ~rate ~write_pct n =
  let r = rng ~seed ~stream:"ledger-readmix" in
  let dues = poisson (Rng.split r) ~rate n in
  let writes = exact_mix (Rng.split r) n ~k:(n * write_pct / 100) in
  let reads = ref 0 in
  Array.mapi
    (fun i due ->
      if writes.(i) then { due; op = Put }
      else begin
        incr reads;
        { due; op = Get { lease = !reads mod lease_every = 0 } }
      end)
    dues
