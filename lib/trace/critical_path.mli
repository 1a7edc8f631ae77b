(** Commit critical-path analysis: decompose every committed request's
    end-to-end latency into named stages by walking its span DAG.  The
    analysis is a streaming sink: {!attach} it before the run and it
    sees every event, however many the recorder retains.

    The stage taxonomy (virtual ns, telescoping to end-to-end):

    + [client_queue] — request bytes arrived at the replica until the
      proxy turned them into a proposal-eligible event;
    + [batch_wait] — time in the proxy batch buffer before flush;
    + [fsync] — proposal to WAL-durable on the proposer (clamped at
      commit: a remote quorum can outrun the local flash device);
    + [consensus] — proposal to quorum commit, net of the local fsync;
    + [sched_wait] — commit to DMT admission (the serialization tax);
    + [execute] — admission to the server's reply;
    + [reply] — reply sent to the client transport receiving it. *)

type stage_row = { stage : string; summary : Metrics.summary }

type view_row = {
  view : int;
  requests : int;
  e2e_p50 : int;
  e2e_p99 : int;
  max_stall : int;  (** worst sched_wait in the view, in ns *)
}

type blocked_row = {
  label : string;  (** "gate.block", "dmt.turn_wait", "cond:<name>" *)
  hits : int;
  blocked_ns : int;
}

type report = {
  committed : int;  (** committed client-call indices (bubbles excluded) *)
  complete : int;  (** spans with the full propose->commit->admit chain *)
  coverage : float;  (** [complete /. committed]; 1.0 on an empty trace *)
  bubbles : int;
  unattributed : int;  (** commits carrying no [req.proposed] record *)
  stages : stage_row list;  (** fixed order, zero-count stages included *)
  e2e : Metrics.summary;
  per_view : view_row list;
  blocked_on : blocked_row list;
  errors : string list;  (** malformed span DAGs; empty on a healthy trace *)
}

type t
(** The state of one pass over the event stream. *)

val attach : Trace.t -> t
(** Follow a live recorder's events from now on (a non-retaining
    recorder suffices). *)

val report : t -> report
(** The decomposition of every request seen so far.  Deterministic: the
    same events yield the same report (including row order). *)

val analyze : Trace.t -> report
(** Replay a retained trace's events through a fresh pass: covers only
    what the recorder kept. *)

val render : report -> string
(** Human-readable tables: stage percentiles, per-view breakdown,
    blocked-on attribution, and any span-DAG errors. *)
