(** TCP-like byte-stream sockets over the simulated fabric.

    Connection-oriented, in-order, reliable streams between nodes, with
    blocking [accept]/[connect]/[recv] integrated with the green-thread
    engine.  This is the transport used by benchmark clients, by CRANE's
    proxy toward clients, and directly by server programs when they run
    un-replicated (the paper's baseline). *)

type world
type listener
type conn

exception Connection_refused of Crane_net.Fabric.node * int
(** connect() to a node/port with no listener (or a crashed node). *)

exception Connection_closed
(** send() on a connection this side already closed. *)

val world : Crane_net.Fabric.t -> world
(** The (single) socket transport for a fabric. *)

val listen : world -> node:Crane_net.Fabric.node -> port:int -> listener
(** Bind and listen.  @raise Invalid_argument if the port is taken. *)

val close_listener : listener -> unit

val pending : listener -> int
(** Number of connections waiting in the backlog. *)

val wait_acceptable : ?timeout:Crane_sim.Time.t -> listener -> bool
(** Block until the backlog is non-empty (poll() on a listening socket).
    [false] on timeout or closed listener. *)

val accept : listener -> conn
(** Block until a connection arrives. *)

val connect : world -> from:Crane_net.Fabric.node -> node:Crane_net.Fabric.node -> port:int -> conn
(** Three-way-handshake connect.  @raise Connection_refused *)

val send : conn -> string -> unit
(** Queue bytes for the peer.  Writing to a connection whose peer is gone
    is silently dropped (the TCP write-after-FIN model, minus SIGPIPE).
    @raise Connection_closed if this side closed the connection. *)

val recv : ?timeout:Crane_sim.Time.t -> conn -> max:int -> string
(** Block until data is available and return up to [max] bytes.  Returns
    [""] on EOF (peer closed or crashed) and on timeout. *)

val close : conn -> unit
(** Idempotent full close; the peer sees EOF after draining. *)

val id : conn -> int
(** Globally unique connection id (stable across both endpoints). *)

val closed : conn -> bool
(** This side has closed the connection (EOF from the peer does not count). *)

val node_crashed : world -> Crane_net.Fabric.node -> unit
(** Model a machine crash: peers of every connection touching the node
    observe EOF; its listeners evaporate; in-flight connects are refused.
    Wire this to [Engine.on_kill] of the replica's group. *)

val node_booted : world -> Crane_net.Fabric.node -> unit
(** A node (re)joined the world — a reboot, or a live reconfiguration
    booting a fresh replacement: bind its transport and discard any
    connection state a previous incarnation of the same name left
    behind. *)
