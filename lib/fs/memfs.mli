(** In-memory filesystem — the state CRANE checkpoints with LXC (§5.2).

    Paths are flat strings ("www/a.php", "db/t1.ibd").  Snapshots are O(1)
    persistent copies; the textual diff between two snapshots is the
    incremental filesystem checkpoint of the paper ("diff --text" against
    an LXC snapshot prepared before any server starts). *)

type t

type snapshot

val create : unit -> t

val write : t -> path:string -> string -> unit
val append : t -> path:string -> string -> unit
val read : t -> path:string -> string option
val read_exn : t -> path:string -> string
val exists : t -> path:string -> bool
val delete : t -> path:string -> unit

val list : t -> prefix:string -> string list
(** Paths under a prefix, sorted. *)

val file_count : t -> int

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val of_snapshot : snapshot -> t
val snapshot_bytes : snapshot -> int
val snapshot_equal : snapshot -> snapshot -> bool
val iter_snapshot : snapshot -> (string -> string -> unit) -> unit
