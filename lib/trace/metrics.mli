(** Counters and virtual-time histograms aggregated from trace events. *)

type summary = {
  count : int;
  total : int;  (** summed virtual ns across samples *)
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type t

val create : ?per_node:bool -> unit -> t
(** [per_node] prefixes every key with "node/" so histograms and
    counters stay attributable to one replica. *)

val attach : t -> Trace.t -> unit
(** Stream events from a live recorder into this aggregation (works with
    a non-retaining trace: constant memory). *)

val incr : t -> ?by:int -> string -> unit
val observe : t -> string -> int -> unit
(** Direct-use API (no trace required). *)

val counter_value : t -> string -> int
(** Occurrences of instants named "cat.name" (0 if never seen). *)

val summary : t -> string -> summary option
(** Percentile summary of the histogram "cat.name" (spans pair
    Begin/End per thread, Async_begin/Async_end per id). *)

val total : t -> string -> int
(** Summed duration of a histogram's samples, 0 if absent. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val summaries : t -> (string * summary) list

val summarize : int list -> summary
(** Percentile summary of a raw sample list.  Total by construction:
    an empty list yields the all-zero summary (it never raises) and a
    singleton yields the sample at every percentile. *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters add, histogram samples concatenate —
    so percentiles of the merged aggregation cover the union of the
    per-replica series. *)

val merged : t list -> t
(** A fresh aggregation holding the merge of all inputs. *)
