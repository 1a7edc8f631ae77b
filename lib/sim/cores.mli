(** Per-replica CPU model.

    A replica machine has a fixed number of cores.  A thread performing a
    compute burst occupies one core for the burst's duration; bursts beyond
    the core count queue FIFO.  This is what makes "compute runs in
    parallel, synchronization is serialized" measurable: DMT serializes
    sync operations but compute segments between them still overlap
    (PARROT's moderate-overhead claim), while a serialized schedule keeps
    cores idle. *)

type t

val create : Engine.t -> int -> t
(** [create eng n] is a pool of [n] cores ([n >= 1]). *)

val work : t -> Time.t -> unit
(** Occupy one core for a duration.  Blocks the calling thread until a
    core is free, then for the duration itself.  Zero-duration work
    returns immediately without taking a core. *)

val busy : t -> int
(** Number of cores currently occupied. *)
