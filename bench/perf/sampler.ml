(** Outside-in host profiler: a SIGPROF sampler over the benchmark
    process.

    [ITIMER_PROF] fires on consumed CPU time (the kernel rounds the 1 ms
    request up to its tick).  Each sample takes the OCaml call stack,
    which runs through every fiber up to the main program, and charges
    it to one layer:

    - [client] when the stack passes through the benchmark's simulated
      client ([Workloads.drive]'s per-arrival closure), whatever that
      client called: the ledger client in [lib/chaos/ledger.ml] or
      [Proxy.parse_read_reply] is client work, not server work;
    - otherwise the layer of the innermost frame that lies in a library
      source file [lib/<dir>/<module>.ml]; frames of the standard library
      and of the benchmark itself are charged to their nearest library
      caller.

    A sample with neither is unattributed.  The library is read as it
    is: attribution uses only debug information, so no source file of
    the system changes. *)

(* One of [Metric.host_layers]. *)
let layer_of ~dir ~modname =
  match (dir, modname) with
  | "sim", "pheap" -> "pheap"
  | "sim", _ -> "engine"
  | "net", _ -> "fabric"
  | "socket", _ -> "sock"
  | "paxos", _ -> "paxos"
  | "storage", _ -> "wal"
  | "core", (("proxy" | "paxos_seq" | "vhost" | "runtime") as m) -> m
  | "dmt", _ -> "dmt"
  | "pthread", _ -> "pthread"
  | "apps", _ | "chaos", "ledger" -> "app"
  | ("checkpoint" | "fs"), _ -> "checkpoint"
  | "trace", _ -> "trace"
  | _ -> "other"

(** The layer of a source file, if it is a library file. *)
let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; dir; base ] when Filename.check_suffix base ".ml" ->
    Some (layer_of ~dir ~modname:(Filename.chop_suffix base ".ml"))
  | _ -> None

(* The client closure, by its debug name: [drive.client] and the
   functions nested in it. *)
let client_file = "bench/perf/workloads.ml"

let is_client slot =
  match (Printexc.Slot.location slot, Printexc.Slot.name slot) with
  | Some loc, Some name when loc.Printexc.filename = client_file ->
    let rec under = function
      | "drive" :: "client" :: _ -> true
      | _ :: rest -> under rest
      | [] -> false
    in
    under (String.split_on_char '.' name)
  | _ -> false

(* What one return address says about a sample.  Inlined frames share
   one address: a client frame among them wins, then the innermost
   library frame. *)
type frame = Client | Lib of string | Neither

type t = {
  counts : (string, int) Hashtbl.t;
  cache : (int, frame) Hashtbl.t;  (** return address -> its frame *)
  mutable samples : int;
  mutable unattributed : int;
  mutable cpu_s : float;  (** CPU seconds covered while running *)
  mutable started_at : float option;
}

let create () =
  {
    counts = Hashtbl.create 16;
    cache = Hashtbl.create 4096;
    samples = 0;
    unattributed = 0;
    cpu_s = 0.0;
    started_at = None;
  }

let frame_of_slots slots =
  let lib slot =
    Option.bind (Printexc.Slot.location slot) (fun loc -> layer_of_file loc.Printexc.filename)
  in
  if Array.exists is_client slots then Client
  else match Array.find_map lib slots with Some l -> Lib l | None -> Neither

let frame_of_entry t (e : Printexc.raw_backtrace_entry) =
  let key = (e :> int) in
  match Hashtbl.find_opt t.cache key with
  | Some f -> f
  | None ->
    let f =
      match Printexc.backtrace_slots_of_raw_entry e with
      | None -> Neither
      | Some slots -> frame_of_slots slots
    in
    Hashtbl.add t.cache key f;
    f

(* The whole stack is walked: a client frame anywhere claims the
   sample; otherwise the innermost library frame does. *)
let layer_of_stack t entries =
  let rec go i innermost =
    if i >= Array.length entries then innermost
    else
      match frame_of_entry t entries.(i) with
      | Client -> Some "client"
      | Lib l when innermost = None -> go (i + 1) (Some l)
      | Lib _ | Neither -> go (i + 1) innermost
  in
  go 0 None

let record t =
  let entries = Printexc.raw_backtrace_entries (Printexc.get_callstack 256) in
  t.samples <- t.samples + 1;
  match layer_of_stack t entries with
  | Some l -> Hashtbl.replace t.counts l (1 + Option.value (Hashtbl.find_opt t.counts l) ~default:0)
  | None -> t.unattributed <- t.unattributed + 1

let interval = 0.001

let start t =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> record t));
  t.started_at <- Some (Sys.time ());
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

(* The timer goes first; a signal already pending then finds SIGPROF
   ignored instead of its default action, which ends the process. *)
let stop t =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  match t.started_at with
  | Some t0 ->
    t.cpu_s <- t.cpu_s +. (Sys.time () -. t0);
    t.started_at <- None
  | None -> ()

let samples t = t.samples

let unattributed_frac t =
  if t.samples = 0 then 1.0 else float t.unattributed /. float t.samples

(** Host milliseconds per layer: each layer's share of the samples times
    the CPU time the sampler covered. *)
let host_ms t layer =
  if t.samples = 0 then 0.0
  else
    let n = Option.value (Hashtbl.find_opt t.counts layer) ~default:0 in
    1000.0 *. t.cpu_s *. float n /. float t.samples
