(** Closed-loop load generator, ApacheBench-style: [clients] concurrent
    client threads issue [requests] total requests against a target,
    recording per-request response time in virtual time.

    A request that fails transiently (connection refused everywhere, or
    EOF mid-request when the primary dies under it) is retried up to
    [retries] times with a bounded, deterministic backoff before it
    counts as a hard error — so chaos runs measure the system's
    availability, not the clients' fragility.  Retries are counted
    separately from errors.

    The backoff is linear with seeded per-(client, attempt) jitter: with
    a fixed step every concurrent client would retry in lockstep and
    re-stampede a recovering primary at the exact same instants.  The
    jitter is a pure hash of (seed, client name, attempt) — no RNG state
    — so fixed-seed runs stay byte-identical. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine

type result = {
  latencies : Time.t list;  (** successful requests, completion order *)
  completions : Time.t list;
      (** absolute completion instants of successful requests, completion
          order (gap analysis: client-visible unavailability windows) *)
  errors : int;  (** requests that failed even after retries *)
  retries : int;  (** transient failures that were retried *)
  wall : Time.t;  (** total virtual duration of the run *)
  read_latencies : Time.t list;
      (** the [latencies] subset issued as fast-path reads (empty without
          a read mix), completion order *)
  write_latencies : Time.t list;
      (** the [latencies] subset issued as writes, completion order *)
}

type handle = { collect : unit -> result; finished : unit -> bool }

let backoff_jitter ~seed ~from ~tries step =
  if step <= 0 then 0
  else Hashtbl.hash (seed, from, tries) mod (max 1 (step / 2))

(* Read/write mix decision for one request: a pure hash of
   (seed, client name, request number), like the retry jitter — no RNG
   state, so fixed-seed runs stay byte-identical and the mix is stable
   under retries (a retried read stays a read). *)
let is_read ~seed ~from ~reqno read_pct =
  Hashtbl.hash (seed, from, reqno, "mix") mod 100 < read_pct

let run ?(name = "load") ?(think = Time.zero) ?(retries = 0)
    ?(retry_backoff = Time.ms 50) ?(seed = 0) ?(read_pct = 95) ?read_request
    ~clients ~requests ~request target =
  let remaining = ref requests in
  let latencies = ref [] in
  let completions = ref [] in
  let read_lat = ref [] in
  let write_lat = ref [] in
  let errors = ref 0 in
  let retried = ref 0 in
  let active = ref clients in
  let finished = ref None in
  let eng = target.Target.eng in
  let t0 = Engine.now eng in
  for c = 1 to clients do
    Engine.spawn eng ~name:(Printf.sprintf "%s-client%d" name c) (fun () ->
        let from = Printf.sprintf "%s-c%d" name c in
        let rec attempt ~start ~issue tries =
          match issue target ~from with
          | Some (_ : string) ->
            let now = Engine.now eng in
            latencies := (now - start) :: !latencies;
            completions := now :: !completions;
            Some (now - start)
          | None ->
            if tries < retries then begin
              incr retried;
              let jitter = backoff_jitter ~seed ~from ~tries retry_backoff in
              Engine.sleep eng ((retry_backoff * (tries + 1)) + jitter);
              attempt ~start ~issue (tries + 1)
            end
            else begin
              incr errors;
              None
            end
        in
        let rec loop () =
          if !remaining > 0 then begin
            let reqno = !remaining in
            decr remaining;
            (* The mix knob only engages when a read issuer is supplied:
               write-only callers keep the exact pre-split behaviour. *)
            let issue, mode_lat =
              match read_request with
              | Some rd when is_read ~seed ~from ~reqno read_pct ->
                (rd, read_lat)
              | Some _ | None -> (request, write_lat)
            in
            (match attempt ~start:(Engine.now eng) ~issue 0 with
            | Some lat -> mode_lat := lat :: !mode_lat
            | None -> ());
            if think > 0 then Engine.sleep eng think;
            loop ()
          end
        in
        loop ();
        decr active;
        if !active = 0 then finished := Some (Engine.now eng - t0))
  done;
  {
    collect =
      (fun () ->
        {
          latencies = List.rev !latencies;
          completions = List.rev !completions;
          errors = !errors;
          retries = !retried;
          wall = (match !finished with Some w -> w | None -> Engine.now eng - t0);
          read_latencies = List.rev !read_lat;
          write_latencies = List.rev !write_lat;
        });
    finished = (fun () -> !finished <> None);
  }

(** Step [eng] in [step]s until [finished] holds, [deadline] passes or
    the engine drains (a drained [run] leaves the clock where it is). *)
let step_until eng ~step ~deadline finished =
  while (not (finished ())) && Engine.now eng < deadline && Engine.pending_events eng > 0 do
    Engine.run ~until:(min deadline (Engine.now eng + step)) eng
  done

(* Step the engine until the workload completes (or the timeout passes):
   avoids simulating hours of idle cluster after the last response. *)
let drive ?(timeout = Time.sec 600) target handle =
  let eng = target.Target.eng in
  step_until eng ~step:(Time.ms 500) ~deadline:(Engine.now eng + timeout) handle.finished
