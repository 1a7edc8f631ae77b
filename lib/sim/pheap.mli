(** Mutable binary min-heap keyed by [(time, sequence-number)].

    The future-event tier of the simulator's queue.  The sequence number
    breaks ties between events scheduled for the same virtual instant,
    making the run order fully deterministic.  Keys are stored unboxed:
    [push] and [pop_min] allocate nothing.

    Entries can be removed by key ({!remove}).  Removal is lazy, but no
    operation sees a removed entry, and removed entries never make up
    more than half of the heap's storage. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int
(** Entries pushed and neither popped nor removed. *)

val push : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val min_time : 'a t -> Time.t
(** The time of the minimum element, or [max_int] when the heap is empty. *)

val min_seq : 'a t -> int
(** The sequence number of the minimum element, or [max_int] when the
    heap is empty. *)

val pop_min : 'a t -> 'a
(** Removes and returns the value of the minimum element, ordered by time
    then seq.  @raise Invalid_argument on an empty heap. *)

val remove : 'a t -> time:Time.t -> seq:int -> unit
(** Removes the entry with key [(time, seq)], which must be in the heap
    (pushed, and neither popped nor removed).  Amortized O(log n): the
    entry leaves storage when it reaches the top, or in a bulk rebuild
    once removed entries outnumber the rest. *)
