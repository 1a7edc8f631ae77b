(** Deterministic discrete-event engine with green threads.

    The engine runs events in [(virtual time, sequence number)] order, so
    execution order is a pure function of the event insertion order: a
    whole distributed run is reproducible from its seed.  The queue has
    two tiers: a FIFO for events due at the current instant and a binary
    heap for later ones.  Together they keep that exact order.

    Simulated threads are OCaml 5 effect-based fibers.  A thread blocks by
    performing {!suspend}, which hands a one-shot [waker] to the caller;
    whoever holds the waker resumes the thread (a timer, a mutex release, a
    packet arrival...).  Wakers are idempotent and report whether they won,
    which gives race-free blocking-with-timeout ({!suspend_timeout}).

    Threads belong to a {e group} (one group per replica incarnation).
    Killing a group models a process crash (SIGKILL): its threads never run
    again, no cleanup code executes, and its scheduled callbacks are
    dropped. *)

type t

type group = int
(** A replica incarnation.  Fresh groups come from {!new_group}. *)

type 'a waker = 'a -> bool
(** [waker v] resumes the suspended thread with [v].  Returns [false] if
    the thread was already woken by a rival waker or its group was killed;
    callers that hand out several wakers for one suspension (e.g. signal +
    timeout) use the return value to pick the survivor. *)

exception Limit_exceeded
(** Raised by {!run} when the configured event budget is exhausted —
    a guard against accidental non-termination of a model. *)

val create : unit -> t

val now : t -> Time.t
(** Current virtual time. *)

val trace : t -> Crane_trace.Trace.t
(** The engine's flight recorder.  Defaults to the disabled
    {!Crane_trace.Trace.null} sink; every layer of the stack reaches its
    recorder through the engine, so attaching one sink traces a whole
    simulated cluster. *)

val set_trace : t -> Crane_trace.Trace.t -> unit
(** Attach a flight recorder.  Engine-level events are:
    [Thread_spawn] and [Group_kill] instants and [Blocked]
    suspend/resume spans. *)

val tracing : t -> bool
(** The recorder is enabled: instrumentation sites check this before
    building an event. *)

val emit :
  t -> ?group:int -> ?node:string -> ?ph:Crane_trace.Trace.phase ->
  Crane_trace.Trace.event -> unit
(** Record an event at the current instant on the running thread. *)

val sched : t -> Sched.t option
(** The installed schedule enumerator, if any.  Consumers with
    nondeterministic choices (the network fabric) route them through the
    scheduler when one is present and fall back to their RNG paths
    otherwise. *)

val set_sched : t -> Sched.t -> unit
(** Install a schedule enumerator: switches the fabric into controlled
    mode for model checking.  See {!Sched}. *)

val clear_sched : t -> unit

val new_group : t -> group

val kill_group : t -> group -> unit
(** Crash a replica incarnation: threads in the group are abandoned and
    its pending callbacks will not fire.  Registered {!on_kill} hooks run
    immediately (they model externally visible effects of the crash, such
    as TCP resets seen by peers). *)

val group_alive : t -> group -> bool

val on_kill : t -> group -> (unit -> unit) -> unit
(** Register a hook to run when [group] is killed. *)

val spawn : t -> ?group:group -> name:string -> (unit -> unit) -> unit
(** Create a thread.  It starts at the current instant, after already
    queued events.  An exception escaping the thread body is recorded (see
    {!failures}) and terminates only that thread. *)

val spawn_with_tid : t -> ?group:group -> name:string -> (unit -> unit) -> int
(** Like {!spawn}, returning the new thread's id (known before it runs). *)

val at : t -> ?group:group -> Time.t -> (unit -> unit) -> unit
(** Schedule a plain callback at an absolute instant (>= now). *)

val after : t -> ?group:group -> Time.t -> (unit -> unit) -> unit
(** Schedule a callback after a relative delay. *)

val suspend : t -> ('a waker -> unit) -> 'a
(** Block the current thread.  [suspend t f] calls [f waker] immediately
    (still on the current thread's stack) and returns when the waker is
    fired.  Must be called from a simulated thread. *)

val suspend_timeout : t -> Time.t -> ('a waker -> unit) -> 'a option
(** [suspend_timeout t d f] is {!suspend} with a timeout the engine owns:
    it returns [Some v] when a waker fires with [v] first and [None] when
    [d] passes first.  The timer is armed right after [f] returns, which
    is the key [after t d] would take at the end of [f], so every other
    event keeps its [(time, seq)] order.  A waker that wins takes the
    timer out of the queue at once: a timeout that loses its race leaves
    no event behind, and nothing it holds stays reachable.  (With
    [d <= 0] the timer is due now and joins this instant's ready events;
    it stays queued, as a no-op once a waker won, until its turn.) *)

val sleep : t -> Time.t -> unit
(** Block for a virtual duration. *)

val yield : t -> unit
(** Reschedule behind already-queued same-instant events. *)

val spin :
  t -> period:Time.t -> ?ahead:(unit -> int) -> ?skip:(int -> unit) ->
  (unit -> bool) -> unit
(** [spin t ~period step] means exactly
    [let rec go () = sleep t period; if step () then go () in go ()]:
    same events, same [(time, seq)] order, same {!pending_events} (an
    armed spinner counts as the one event its sleep would be), same
    [blocked] spans.  Each step costs two events, as a sleep's timer and
    resume would, but runs on the engine without switching fibers or
    allocating; the first step that returns [false] resumes the calling
    thread in that same event.  [period] must be > 0.

    The optional closed form lets the engine apply steps nobody else can
    observe without running them.  [ahead ()] returns how many upcoming
    steps would each return [true] and can be applied by [skip n] instead
    of running [step]: such steps schedule nothing and read no state
    that another event could change in between.  When the ready queue is
    empty and the earliest spinner step comes strictly before the next
    heap event and [run]'s [until], the engine applies, for every armed
    spinner, each step that falls strictly before the next heap event
    and the first step some spinner cannot take in closed form.  The
    clock moves to the last applied step, and the spinners get fresh
    seqs in exactly the order their re-arming would have taken.

    {b Commutation rule.} Closed-form steps of different spinners must
    touch disjoint state: the engine applies each spinner's batch in one
    [skip], in no particular order relative to the others.

    Traced runs take every step: with the recorder enabled, the trace
    needs one [blocked] span per step.  A killed group's spinner takes
    no closed-form step.  Applied steps count two events each against
    [run]'s [limit], and a batch that would cross it is stepped instead,
    so {!Limit_exceeded} fires at the same step as without batching. *)

val self_tid : t -> int
(** Unique id of the running thread (-1 outside any thread). *)

val self_group : t -> group option

val run : ?until:Time.t -> ?limit:int -> t -> unit
(** Drain the event queue.  [until] stops the clock at a given instant
    (remaining events stay queued); [limit] bounds the number of events
    processed (default 200 million).

    When the queue drains before [until], [run] returns with the clock at
    the last event it ran, not at [until]: nothing is left to move it.  A
    caller that steps the engine towards a deadline must stop when
    {!pending_events} is 0.  @raise Limit_exceeded *)

val failures : t -> (string * exn) list
(** Threads that died with an uncaught exception, oldest first. *)

val pending_events : t -> int
(** Events queued and not yet run, in both tiers, plus armed spinners.
    A {!suspend_timeout} timer counts until it fires or its waker wins. *)

type stats = {
  events_run : int;  (** events executed (batched spinner steps excluded) *)
  spin_steps : int;  (** spinner steps executed by running the step *)
  spin_skipped : int;  (** spinner steps applied in closed form *)
}

val stats : t -> stats
(** Lifetime counters.  A run without closed forms would have executed
    [events_run + 2 * spin_skipped] events. *)
