module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Trace = Crane_trace.Trace

type entry = { data : string; torn : bool }

type t = {
  eng : Engine.t;
  wname : string;
  write_latency : Time.t;
  (* Stable records, oldest first; a torn tail is tagged 1, an intact
     record 0. *)
  mutable recs : Arena.t;
  mutable len : int;
  mutable writes : int;
  (* Writes become stable in submission order even when issued
     concurrently: model a single flash channel. *)
  mutable last_stable_at : Time.t;
  (* Submitted but not yet stable, in submission order (oldest first):
     what a crash can tear. *)
  inflight : (int, string) Hashtbl.t;
  mutable next_write_id : int;
  (* Truncations whose header is durable but whose physical prefix drop
     has not yet hit the device.  A crash in this window leaves header +
     old entries on disk; recovery must tolerate both being present. *)
  pending_truncs : (int, unit) Hashtbl.t;
  mutable next_trunc_id : int;
  mutable truncations : int;
  mutable dropped : int;
}

let create ?(write_latency = Time.us 15) eng ~name =
  {
    eng;
    wname = name;
    write_latency;
    recs = Arena.create ();
    len = 0;
    writes = 0;
    last_stable_at = Time.zero;
    inflight = Hashtbl.create 8;
    next_write_id = 0;
    pending_truncs = Hashtbl.create 2;
    next_trunc_id = 0;
    dropped = 0;
    truncations = 0;
  }

let name t = t.wname

let push ?(torn = false) t data =
  ignore (Arena.add t.recs ~tag:(Bool.to_int torn) data);
  t.len <- t.len + 1

let stable_time t =
  let now = Engine.now t.eng in
  let at = max (now + t.write_latency) (t.last_stable_at + t.write_latency) in
  t.last_stable_at <- at;
  at

(* Device-level span events: one instant at submission (with the flash
   channel's queue depth) and one when the write is durable (with its
   total device latency).  The WAL is named after its replica, so the
   events land on that node's timeline. *)
let trace_submit t ~bytes ~group_size =
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.wname
      (Trace.Wal_submit { bytes; group = group_size; queued = Hashtbl.length t.inflight })

let trace_durable t ~submitted_at ~group_size =
  if Engine.tracing t.eng then
    Engine.emit t.eng ~node:t.wname
      (Trace.Wal_durable { lat_ns = Engine.now t.eng - submitted_at; group = group_size })

(* Group commit: the whole list shares one position in the flash-channel
   queue and one write-latency charge, so a one-record list is a plain
   durable append.  A crash before the group's fsync instant consumes
   every member (the torn-tail model tears the oldest). *)
(* Records take consecutive write ids: a group is the range
   [first..last]. *)
let rec enqueue t = function
  | [] -> ()
  | record :: rest ->
    Hashtbl.replace t.inflight t.next_write_id record;
    t.next_write_id <- t.next_write_id + 1;
    enqueue t rest

let rec intact t id last = id > last || (Hashtbl.mem t.inflight id && intact t (id + 1) last)

let append_async t records k =
  match records with
  | [] -> k ()
  | _ ->
    t.writes <- t.writes + 1;
    let first = t.next_write_id in
    enqueue t records;
    let last = t.next_write_id - 1 in
    let group_size = last - first + 1 in
    trace_submit t
      ~bytes:(List.fold_left (fun n r -> n + String.length r) 0 records)
      ~group_size;
    let submitted_at = Engine.now t.eng in
    Engine.at t.eng (stable_time t) (fun () ->
        (* A crash_torn_tail between submission and this instant consumed
           the group: it never reached the device intact. *)
        if intact t first last then begin
          for id = first to last do
            push t (Hashtbl.find t.inflight id);
            Hashtbl.remove t.inflight id
          done;
          trace_durable t ~submitted_at ~group_size;
          k ()
        end)

(* Two-phase log truncation.  Phase 1 durably appends [header] (which
   must encode everything needed to reinterpret the surviving suffix —
   watermark, checkpoint id).  Phase 2, a separate device operation,
   physically drops every {e older} intact record matching [drop].  A
   crash between the phases leaves the header plus the old records; the
   drop predicate is only consulted for records that predate the header,
   so re-running truncation after recovery converges to the same state. *)
let truncate_to t ~header ~drop k =
  t.truncations <- t.truncations + 1;
  append_async t [ header ] (fun () ->
      (* The header is the newest record.  Until its drop runs, only
         earlier truncations remove records, all of them older than it. *)
      let at = t.len - 1 + t.dropped in
      let tid = t.next_trunc_id in
      t.next_trunc_id <- tid + 1;
      Hashtbl.replace t.pending_truncs tid ();
      Engine.at t.eng (stable_time t) (fun () ->
          if Hashtbl.mem t.pending_truncs tid then begin
            Hashtbl.remove t.pending_truncs tid;
            (* Keep everything from the header on; filter what's older. *)
            let h = at - t.dropped in
            let recs = Arena.create () and i = ref 0 and kept = ref 0 in
            Arena.iter t.recs (fun tag data ->
                if !i >= h || (tag = 0 && not (drop data)) then begin
                  ignore (Arena.add recs ~tag data);
                  incr kept
                end;
                incr i);
            t.dropped <- t.dropped + t.len - !kept;
            t.recs <- recs;
            t.len <- !kept;
            k ()
          end))

let crash_torn_tail t =
  let pending =
    Hashtbl.fold (fun id data acc -> (id, data) :: acc) t.inflight []
    |> List.sort compare
  in
  Hashtbl.reset t.inflight;
  (* The process died before issuing the physical drop: the header (if
     it made it to the device) plus the old records both survive. *)
  Hashtbl.reset t.pending_truncs;
  match pending with
  | [] -> false
  | (_, data) :: _ ->
    (* The oldest in-flight record was mid-write: a partial prefix lands
       on disk; younger in-flight writes are lost outright. *)
    push ~torn:true t (String.sub data 0 (String.length data / 2));
    true

let entries t =
  let acc = ref [] in
  Arena.iter t.recs (fun tag data -> acc := { data; torn = tag = 1 } :: !acc);
  List.rev !acc

let records t =
  List.filter_map (fun e -> if e.torn then None else Some e.data) (entries t)

let length t = t.len
let writes t = t.writes
let truncations t = t.truncations
let dropped t = t.dropped
