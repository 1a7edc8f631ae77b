(** Deterministic, splittable pseudo-random number generator (splitmix64).

    The simulator never uses [Stdlib.Random]: every source of modelled
    nondeterminism (network jitter, native-runtime wake order, workload
    think times) draws from an explicitly seeded [Rng.t], so an entire
    distributed execution replays from a single seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances.  Used to give
    each replica / client / subsystem its own stream so that adding draws
    in one component does not perturb another. *)

val next : t -> int64
(** Raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list.  @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates shuffle. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution, used for
    Poisson request inter-arrival times in the workload generators. *)
