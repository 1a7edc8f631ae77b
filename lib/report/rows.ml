(** One result schema for every bench.  A bench run is a header naming
    the bench and the run that produced it (seed, quick size), then one
    row per measured number.  A committed [BENCH_<name>.json] is the
    baseline that a fresh run of the same header is drift-checked
    against, row by row. *)

type better = Higher | Lower

type row = {
  case : string;  (** what was measured, including the input size *)
  metric : string;
  unit : string;
  better : better;
  value : float;
}

type t = { bench : string; seed : int; quick : bool; rows : row list }

let row case metric unit better value = { case; metric; unit; better; value }

(** A yes/no outcome as a row: 1 for true.  Each bench gates on its
    flags with {!is_set}. *)
let flag case metric b = row case metric "bool" Higher (if b then 1.0 else 0.0)

(** The value of [case]/[metric] in [rows]; nan when absent, which
    fails every gate below, so a missing row fails only the gates that
    read it. *)
let find rows case metric =
  match List.find_opt (fun r -> r.case = case && r.metric = metric) rows with
  | Some r -> r.value
  | None -> Float.nan

(** A bench's pass/fail condition: its label and whether it held.
    Bounds are constants, never derived from a baseline. *)
type gate = string * bool

let at_least what v bound = (Printf.sprintf "%s %.4g >= %.4g" what v bound, v >= bound)
let at_most what v bound = (Printf.sprintf "%s %.4g <= %.4g" what v bound, v <= bound)
let none what v = (Printf.sprintf "%s %.0f (0 allowed)" what v, v = 0.)

(** The flag [case]/[metric] as a gate: set, and present. *)
let is_set rows case metric = (case ^ ": " ^ metric, find rows case metric = 1.0)

(* ---- writer and reader ----

   The file is JSON, written one row per line so that the reader can
   take it back apart with [Scanf] and needs no JSON parser.  The
   reader accepts exactly what the writer emits.  Labels are the
   benches' own ASCII names, for which OCaml's %S quoting is also
   JSON's. *)

let header_fmt : _ format6 = "{\"bench\": %S, \"seed\": %d, \"quick\": %B, \"rows\": ["

let row_fmt : _ format6 =
  "  {\"case\": %S, \"metric\": %S, \"unit\": %S, \"better\": %S, \"value\": %s}"

let better_name = function Higher -> "higher" | Lower -> "lower"

(* Shortest decimal that reads back as the same float. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_string t =
  let b = Buffer.create 4096 in
  Printf.bprintf b header_fmt t.bench t.seed t.quick;
  List.iteri
    (fun i r ->
      Buffer.add_string b (if i = 0 then "\n" else ",\n");
      Printf.bprintf b row_fmt r.case r.metric r.unit (better_name r.better)
        (number r.value))
    t.rows;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let parse_row line =
  Scanf.sscanf_opt line
    " {\"case\": %S, \"metric\": %S, \"unit\": %S, \"better\": %S, \"value\": %f}"
    (fun case metric unit better value ->
      match better with
      | "higher" -> Some (row case metric unit Higher value)
      | "lower" -> Some (row case metric unit Lower value)
      | _ -> None)
  |> Option.join

(** [None] unless [s] is exactly what [to_string] writes. *)
let of_string s =
  match String.split_on_char '\n' s with
  | [] -> None
  | head :: lines ->
    let rec rows acc = function
      | [ "]}"; "" ] -> Some (List.rev acc)
      | line :: rest -> (
        match parse_row line with
        | Some r -> rows (r :: acc) rest
        | None -> None)
      | [] -> None
    in
    Option.bind
      (Scanf.sscanf_opt head header_fmt (fun bench seed quick -> (bench, seed, quick)))
      (fun (bench, seed, quick) ->
        Option.map (fun rows -> { bench; seed; quick; rows }) (rows [] lines))

let write path t = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string t))

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error _ -> None

(* ---- drift ---- *)

(** Largest regression any row may show against its baseline, as a
    fraction of the baseline's magnitude. *)
let tolerance = 0.2

(** Check every baseline row against [current]: a row may move in its
    [better] direction freely and the other way by at most [tolerance]
    of its baseline (so a [Lower] row whose baseline is 0 must stay 0),
    and a row missing from [current] fails.  Rows only [current] has
    pass.  [Ok failures] lists one message per failed row; [Error] means
    the two headers differ and the runs are not comparable. *)
let drift ~baseline ~current =
  let header t = Printf.sprintf "%s seed %d quick %b" t.bench t.seed t.quick in
  if header baseline <> header current then
    Error (Printf.sprintf "baseline is %s, run is %s" (header baseline) (header current))
  else
    let index = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace index (r.case, r.metric) r) current.rows;
    Ok
      (List.filter_map
         (fun b ->
           let name = Printf.sprintf "%s / %s" b.case b.metric in
           match Hashtbl.find_opt index (b.case, b.metric) with
           | None -> Some (name ^ ": missing")
           | Some c ->
             let slack = tolerance *. Float.abs b.value in
             let ok =
               match b.better with
               | Higher -> c.value >= b.value -. slack
               | Lower -> c.value <= b.value +. slack
             in
             if ok then None
             else
               Some
                 (Printf.sprintf "%s: %s %s vs baseline %s (%s is better)" name
                    (number c.value) c.unit (number b.value) (better_name b.better)))
         baseline.rows)

(** {!drift} as gates for the committed file [path]; [baseline] is that
    file as read before the run overwrote it, [None] if unreadable. *)
let drift_gates ~path ~baseline ~current =
  match baseline with
  | None -> [ (Printf.sprintf "drift: no readable baseline %s" path, false) ]
  | Some baseline -> (
    match drift ~baseline ~current with
    | Error e -> [ ("drift: not comparable: " ^ e, false) ]
    | Ok [] ->
      [ (Printf.sprintf "drift: all %d rows of %s within %.0f%%" (List.length baseline.rows)
           path (100. *. tolerance),
         true) ]
    | Ok failures -> List.map (fun f -> ("drift: " ^ f, false)) failures)
