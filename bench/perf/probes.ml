(** Boundary probes: what the benchmark can observe from outside the
    system without touching it.

    - a wrapper around the server's [boot] that counts (and, when asked,
      times) the calls the delivery layer makes into the application's
      [footprint] classifier and its [read] fast path;
    - a virtual-time sampler of the engine's pending-event count;
    - garbage-collector deltas over a measured phase. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Api = Crane_core.Api

type app_calls = {
  mutable footprint_calls : int;
  mutable read_calls : int;
  mutable footprint_s : float;  (** host seconds inside [footprint] *)
  mutable read_s : float;  (** host seconds inside [read] *)
  mutable timed : bool;  (** time the calls too, not only count them *)
}

let app_calls () =
  { footprint_calls = 0; read_calls = 0; footprint_s = 0.0; read_s = 0.0; timed = false }

let timed_call c f x ~add =
  if c.timed then begin
    let t0 = Unix.gettimeofday () in
    let r = f x in
    add (Unix.gettimeofday () -. t0);
    r
  end
  else f x

(** [server] with every booted handle's [footprint] and [read] counted
    into [c].  Behaviour is otherwise unchanged. *)
let wrap_server c (server : Api.server) : Api.server =
  {
    server with
    Api.boot =
      (fun api ->
        let h = server.Api.boot api in
        {
          h with
          Api.footprint =
            (fun line ->
              c.footprint_calls <- c.footprint_calls + 1;
              timed_call c h.Api.footprint line ~add:(fun d ->
                  c.footprint_s <- c.footprint_s +. d));
          read =
            (fun line ->
              c.read_calls <- c.read_calls + 1;
              timed_call c h.Api.read line ~add:(fun d -> c.read_s <- c.read_s +. d));
        });
  }

type pending = {
  mutable peak : int;
  mutable sum : int;
  mutable samples : int;
  mutable stopped : bool;
}

let period = Time.ms 1

(** Sample [Engine.pending_events] every [period] of virtual time until
    {!stop_pending}.  The sampling callback is the benchmark's own event;
    it reads the count after its own entry has left the queue. *)
let sample_pending eng =
  let p = { peak = 0; sum = 0; samples = 0; stopped = false } in
  let rec tick () =
    if not p.stopped then begin
      let n = Engine.pending_events eng in
      p.peak <- max p.peak n;
      p.sum <- p.sum + n;
      p.samples <- p.samples + 1;
      Engine.after eng period tick
    end
  in
  Engine.after eng period tick;
  p

let stop_pending p = p.stopped <- true

let pending_mean p =
  if p.samples = 0 then 0.0 else float p.sum /. float p.samples

type gc = { minor_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    major_collections = after.major_collections - before.major_collections;
  }
