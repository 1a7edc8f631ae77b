(** Nondeterministic thread-synchronization primitives.

    This is the un-replicated baseline of the paper's evaluation: the
    Pthreads runtime.  Wake order under contention is drawn from a seeded
    RNG, so the same program exercises different schedules under different
    seeds — the paper's source S2 of replica divergence.

    A cost model charges virtual time per operation: an uncontended
    operation is cheap; blocking and being woken costs a context switch
    (futex-style) plus a random OS wake-to-run delay.

    Every operation also streams a "sync" event through the engine's
    flight recorder (object id, primitive kind, human label), which is
    what feeds the happens-before sanitizer in [lib/analysis].  Object
    ids start at 1; id 0 is reserved for the DMT turn pseudo-lock. *)

type t
(** One runtime instance per simulated process. *)

val create : Crane_sim.Engine.t -> Crane_sim.Rng.t -> t

val engine : t -> Crane_sim.Engine.t

module Mutex : sig
  type m

  val create : ?name:string -> t -> m
  val lock : m -> unit

  val unlock : m -> unit
  (** @raise Invalid_argument when unlocking a free mutex, or when the
      calling thread is not the owner (pthreads undefined behaviour,
      promoted to a hard error). *)
end

module Cond : sig
  type c

  val create : ?name:string -> t -> c

  val wait : c -> Mutex.m -> unit
  (** Atomically release the mutex and block; re-acquires before return. *)

  val signal : c -> unit
  (** Wake one random waiter (no-op when none). *)

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
  (** Block until [n] threads arrive; all released together. *)
end

type thread
(** A joinable thread handle (pthread_create/pthread_join). *)

val spawn : t -> name:string -> (unit -> unit) -> thread

val join : thread -> unit
(** Block until the thread's body returns.  Contributes the exit -> join
    happens-before edge the sanitizer uses. *)
