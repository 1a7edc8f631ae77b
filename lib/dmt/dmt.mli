(** PARROT: the deterministic multithreading scheduler (paper §3.1).

    One scheduler instance per server process.  Registered threads pass a
    global turn around in round-robin order: only the thread at the head
    of the run queue may perform a synchronization operation and mutate
    the queues.  Each turn handoff ticks the {e logical clock}; given the
    same inputs admitted at the same logical clocks, the entire
    multithreaded execution is deterministic.

    The four primitives of the paper's Figure 8 — {!get_turn},
    {!put_turn}, {!wait}, {!signal} — are exposed so CRANE's socket-call
    wrappers (paper Figures 10–11) can be built on top, as are the
    Pthreads wrappers of Figure 9 ({!Mutex}, {!Cond}, ...).

    Two escape hatches reproduce PARROT behaviours the evaluation depends
    on:
    - {!block_external} is PARROT's nondeterministic blocking-socket-call
      path (§3.1): the thread leaves the run queue around an engine-level
      blocking action and rejoins in completion order, preserving network
      timing nondeterminism when CRANE is {e not} layered on top;
    - {!Soft_barrier} is the soft-barrier performance hint (§7.4): it
      lines up compute phases by parking arrivals off the run queue until
      [n] threads gather or a deterministic logical-clock timeout expires. *)

type t

val create :
  ?turn_cost:Crane_sim.Time.t -> ?idle_period:Crane_sim.Time.t ->
  ?lanes:int -> Crane_sim.Engine.t -> t
(** [turn_cost] is virtual time charged per turn handoff (default 150 ns:
    PARROT's optimized spin-then-block handoff); it must be > 0, or the
    idle thread would never let virtual time pass; [idle_period] paces the
    internal idle thread when the run queue is otherwise empty (default
    10 us, the paper's usleep in Figure 10).  [lanes] (default 1) is the
    number of independent run queues: the 1-lane scheduler is classic
    PARROT; the dependency-aware delivery layer adds one lane per pool
    worker so footprint-disjoint commands round-robin independently.
    Lane 0 hosts the idle thread and threads spawned from outside the
    scheduler. *)

val lane_count : t -> int

val current_lane : t -> int
(** Lane of the calling thread (0 for unregistered threads).  A thread's
    lane changes when it is signalled with {!signal}[ ?lane]. *)

val engine : t -> Crane_sim.Engine.t

val spawn : t -> name:string -> (unit -> unit) -> unit
(** Register and start a thread under this scheduler.  The thread enters
    the run queue immediately and leaves it when its body returns. *)

val clock : t -> int
(** Current logical clock (total turn handoffs so far). *)

val set_label : t -> string -> unit
(** Replica name used to attribute this scheduler's trace events (DMT
    [turn_wait] spans) to a process in the flight recorder. *)

type gate = {
  run : unit -> unit;
      (** CRANE's [check_add_timebubble] (Figure 10).  It runs with the
          turn held: in every {!Mutex.lock} and on every idle-thread
          cycle.  It may block (virtual time passes, the logical clock
          does not), which is how "tick only when the PAXOS sequence is
          non-empty" is enforced. *)
  try_run : unit -> bool;
      (** [run ()] when it would not block; otherwise [false], having
          done nothing. *)
  ahead : unit -> int;
      (** How many upcoming idle-cycle gate calls are pure, given one
          logical tick before each and no other event in between: each
          changes only state no other thread can observe until the next
          event, and none would block. *)
  skip : int -> unit;
      (** Apply [n <= ahead ()] such calls, after the clock has ticked
          [n] times. *)
  wake : unit -> unit;
      (** A thread joined a run queue without the turn (an outside
          {!spawn}, a {!block_external} rejoin): a blocked [run] must
          look again. *)
}

val set_gate : t -> gate -> unit
(** Install CRANE's gate.  The idle thread runs its cycles as an engine
    spinner ({!Crane_sim.Engine.spin}): [try_run] on every cycle, [run]
    where that would block, and [ahead]/[skip] as the closed form of the
    cycles nobody else can observe. *)

val stop : t -> unit
(** Shut the idle thread down (end of an experiment). *)

(** {1 Scheduler primitives (paper Figure 8)} *)

val get_turn : t -> unit
(** Block until the calling thread is the head of the run queue. *)

val put_turn : t -> unit
(** Rotate to the tail, tick the logical clock, wake the next head. *)

val advance_clock : t -> int -> unit
(** Bulk-tick the logical clock (deterministic timeouts included).  Only
    sound while the caller is the sole runnable thread — PARROT's
    rapid-exhaustion mechanism for time bubbles (§3.1, §4). *)

val new_obj : t -> int
(** Allocate a wait-queue object (mutex, condvar, socket descriptor...).
    Ids start at 1: id 0 is reserved for the turn pseudo-lock the
    runtime's shared-cell wrappers report to the sanitizer. *)

val is_thread : t -> bool
(** Whether the calling engine thread is registered with this scheduler.
    Runtime wrappers use it to skip turn brackets on accesses from
    outside the DMT world (bootstrap, checkpointing). *)

val wait : t -> obj:int -> unit
(** Move the calling thread (which must hold the turn) to the wait queue
    of [obj]; returns holding the turn once signalled and at the head. *)

val signal : ?lane:int -> t -> obj:int -> unit
(** Move one waiter of [obj] just behind the current head, so it becomes
    the head after the signaller's {!put_turn}.  No-op without waiters.
    Requires the turn.  [?lane] re-lanes the waiter into that run queue
    instead of the signaller's (the dependency-aware gate routes a worker
    to the lane of its command's conflict footprint); a waiter landing at
    the head of an idle lane is woken directly. *)

val relane : t -> lane:int -> unit
(** Migrate the calling thread (which must hold its lane's turn) into
    [lane]'s run queue, just behind its head; returns holding that
    lane's turn.  No-op when already there.  Complements [signal ?lane]:
    a worker whose command bytes were pushed before it ever parked is
    never re-laned by the signal and must move itself at the
    execute-window boundary. *)

val block_external : t -> (unit -> 'a) -> 'a
(** PARROT's nondeterministic blocking call path: leave the run queue,
    run [f] (which may block on the engine), rejoin at the tail in
    completion order. *)

val next_tick_hook : t -> int option
(** The earliest logical clock at which a pending deterministic timeout
    (a {!Soft_barrier} release) fires, if any. *)

val only_one_runnable : t -> bool
(** Exactly one thread sits in the run queues, across all lanes: the
    idle thread is alone.  O(lanes). *)

(** {1 Pthreads wrappers (paper Figure 9)} *)

module Mutex : sig
  type m

  val create : ?name:string -> t -> m
  val lock : m -> unit
  val unlock : m -> unit
end

module Cond : sig
  type c

  val create : ?name:string -> t -> c
  val wait : c -> Mutex.m -> unit
  val signal : c -> unit
  val broadcast : c -> unit
end

module Rwlock : sig
  type rw

  val create : ?name:string -> t -> rw
  val rdlock : rw -> unit
  val wrlock : rw -> unit
  val unlock : rw -> unit
end

module Sem : sig
  type s

  val create : ?name:string -> t -> int -> s
  val post : s -> unit
  val wait : s -> unit
end

module Barrier : sig
  type b

  val create : ?name:string -> t -> int -> b

  val wait : b -> unit
  (** Block until [n] registered threads arrive; all released together
      (deterministic release order: the wait-queue FIFO). *)
end

(** {1 Soft-barrier performance hints (paper §7.4)} *)

module Soft_barrier : sig
  type sb

  val create : t -> n:int -> timeout_ticks:int -> sb
  (** Line up [n] computations; release early after [timeout_ticks]
      logical clocks so the hint "times out deterministically and
      tolerates different numbers of concurrent requests". *)

  val wait : sb -> unit
end
