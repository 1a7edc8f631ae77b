(** FIFO byte buffer with partial reads — the receive side of a
    simulated TCP connection. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val push : t -> string -> unit
(** Append a chunk (empty chunks are ignored). *)

val take : t -> max:int -> string
(** Remove and return up to [max] bytes ("" when empty).  A take of
    exactly the head chunk returns that chunk itself; any other take
    copies once. *)

