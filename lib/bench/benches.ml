(** Every bench as a value.  [run] measures and returns each result
    number as a row of the one schema in {!Crane_report.Rows}; [gates]
    states the bench's pass/fail conditions over the rows of a written
    [BENCH_<name>.json] alone, with constant bounds, so a test can check
    each gate against the committed file and against a broken copy of
    it.  The CLI's [bench] command writes the rows, prints the gates and
    drift-checks every row against the committed file. *)

module Rows = Crane_report.Rows

type t = {
  name : string;
  run : quick:bool -> seed:int -> Rows.row list;
  gates : Rows.t -> Rows.gate list;
}

let all =
  [ { name = "batching"; run = Batching.run; gates = Batching.gates };
    { name = "recovery"; run = Recovery.run; gates = Recovery.gates };
    { name = "latency"; run = Latency.run; gates = Latency.gates };
    { name = "reconfig"; run = Reconfig.run; gates = Reconfig.gates };
    { name = "readmix"; run = Readmix.run; gates = Readmix.gates };
    { name = "parallel"; run = Parallel.run; gates = Parallel.gates };
    { name = "paper"; run = Paper.run; gates = Paper.gates } ]
