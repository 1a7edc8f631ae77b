(** Simulated LAN fabric.

    A datagram layer between named nodes: per-link latency with seeded
    jitter, optional loss, partitions, and node up/down — the substrate for
    both the PAXOS protocol traffic and the TCP-like socket layer.

    Delivery per (src, dst) pair is FIFO (later sends never overtake
    earlier ones on the same link, as on a TCP-backed LAN), while jitter
    still makes {e cross-link} arrival order nondeterministic — the paper's
    source S1/S3 of replica divergence. *)

type node = string

type endpoint = { node : node; port : int }

type message = ..
(** Extensible payload type: each protocol layer adds its constructors. *)

type t

val create : Crane_sim.Engine.t -> Crane_sim.Rng.t -> t
(** Default link model: 40 us base latency, 20 us jitter, no loss —
    a 1 Gbps LAN as in the paper's testbed. *)

val engine : t -> Crane_sim.Engine.t

val set_latency : t -> base:Crane_sim.Time.t -> jitter:Crane_sim.Time.t -> unit
val set_loss : t -> float -> unit

val node_up : t -> node -> unit
(** Bring a node (back) online.  Nodes referenced by {!bind} or {!send}
    are brought up implicitly. *)

val node_down : t -> node -> unit
(** Take a node offline: its in-flight and future messages are dropped,
    in both directions. *)

val partition : t -> node list -> node list -> unit
(** Block traffic between the two sides (both directions).  Cumulative
    with previous partitions. *)

val partition_oneway : t -> from:node list -> to_:node list -> unit
(** Block traffic from [from] to [to_] only: the asymmetric failure mode
    (e.g. a primary whose outbound NIC queue wedges while inbound traffic
    still arrives).  Cumulative with previous partitions. *)

val heal : t -> unit
(** Remove all partitions. *)

val partitions : t -> int
(** Number of active partition rules. *)

val bind : t -> endpoint -> (src:endpoint -> message -> unit) -> unit
(** Install the handler for a (node, port).  Replaces any previous one. *)

val unbind : t -> endpoint -> unit

val send : ?bytes:int -> t -> src:endpoint -> dst:endpoint -> message -> unit
(** Fire-and-forget datagram.  Silently dropped if either node is down at
    delivery time, the pair is partitioned, the loss model fires, or no
    handler is bound.  [bytes] adds the bulk-transfer cost
    [bytes * 8 ns] to the link delay, the serialization and wire cost of
    a 1 Gbps link (used for snapshot streaming;
    ordinary protocol messages leave it 0 so fixed-seed timings are
    unchanged). *)

val reject : t -> src:endpoint -> dst:endpoint -> reason:string -> unit
(** Record an application-level rejection of an already-delivered message
    (e.g. consensus fencing a stale config epoch): counts and traces like
    a fabric drop, with [reason] on the receiver's timeline. *)

val delivered : t -> int
(** Total messages delivered so far (for tests and consensus-cost stats). *)

val dropped : t -> int
