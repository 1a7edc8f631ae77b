(** The server-facing runtime interface.

    A server program in this reproduction is written once against [API]
    and runs unmodified under any of the bindings, exactly as a Linux
    server binary runs unmodified under different [LD_PRELOAD]
    interpositions.  CRANE interposes on two layers, so [API] is the
    product of two halves, each swappable on its own ({!Runtime.create}):

    - [SYNC], the libpthread layer: nondeterministic Pthreads, or the
      PARROT DMT scheduler;
    - [NET], the socket layer: direct sockets, or CRANE's virtualized
      socket calls over the PAXOS sequence.

    The paper's deployments are the four cells of that product: native
    (Pthreads + direct; the un-replicated baseline), PARROT alone (DMT +
    direct, "w/ Parrot only" in Figure 14), Paxos-only (Pthreads + PAXOS
    sequence) and CRANE (DMT + PAXOS sequence, with time bubbling).

    Soft barriers are PARROT's performance hints: a no-op under Pthreads. *)

module Time = Crane_sim.Time

module type SYNC = sig
  val spawn : name:string -> (unit -> unit) -> unit
  (** pthread_create. *)

  type mutex
  type cond
  type rwlock

  val mutex : ?name:string -> unit -> mutex
  val lock : mutex -> unit
  val unlock : mutex -> unit
  val cond : ?name:string -> unit -> cond
  val cond_wait : cond -> mutex -> unit
  val cond_signal : cond -> unit
  val cond_broadcast : cond -> unit
  val rwlock : ?name:string -> unit -> rwlock
  val rdlock : rwlock -> unit
  val wrlock : rwlock -> unit
  val rwunlock : rwlock -> unit

  type 'a cell
  (** A monitored shared-memory location.  Reads and writes stream "mem"
      events to the flight recorder for the happens-before sanitizer;
      under DMT they are additionally serialized through the scheduler
      turn, which is exactly what makes them race-free-by-serialization. *)

  val cell : name:string -> 'a -> 'a cell
  val cell_get : 'a cell -> 'a
  val cell_set : 'a cell -> 'a -> unit

  type soft_barrier

  val soft_barrier : n:int -> timeout_ticks:int -> soft_barrier
  val soft_barrier_wait : soft_barrier -> unit
end

module type NET = sig
  type listener
  type conn

  val listen : port:int -> listener
  val poll : listener -> unit
  (** Block until a connection can be accepted. *)

  val accept : listener -> conn
  val recv : conn -> max:int -> string
  (** [""] means EOF. *)

  val send : conn -> string -> unit
  val close : conn -> unit
  val conn_id : conn -> int
end

module type API = sig
  val node : string
  (** Replica identity (host name). *)

  val fs : Crane_fs.Memfs.t
  (** The server's working/installation filesystem (checkpointed). *)

  val now : unit -> Time.t
  val sleep : Time.t -> unit

  val work : Time.t -> unit
  (** A CPU burst: occupies one core of the replica machine. *)

  include SYNC
  include NET
end

type api = (module API)

(** The conflict footprint a server declares for one request payload: the
    named resources (shared cells, lock-guarded structures) the handler
    will read and write.  The dependency-aware delivery layer admits two
    committed commands concurrently only when their footprints are
    disjoint (no write/write or read/write overlap); [None] means the
    server cannot bound the command's effects, and the gate conservatively
    treats it as touching everything (it executes alone, in log order). *)
type footprint = { fp_reads : string list; fp_writes : string list }

(** What a booted server hands back to the CRANE instance: the hooks the
    checkpoint component needs (the CRIU-substitution state blob, declared
    resident memory) and a stop switch. *)
type handle = {
  server_name : string;
  state_of : unit -> string;
  load_state : string -> unit;
  mem_bytes : unit -> int;
  stop : unit -> unit;
  read : string -> string option;
      (** Read fast path: answer a GET-style request payload directly
          from current server state, without a consensus round or a
          sequence entry.  [None] means the request is not a pure read
          (or the server has no fast path) — the caller must fall back
          to the consensus path.  Must not block, yield, or mutate
          state: the proxy calls it synchronously from its own thread,
          so the answer reflects one instant of server state. *)
  footprint : string -> footprint option;
      (** Conflict footprint of one request payload, for dependency-aware
          parallel delivery.  Like [read], must be pure and non-blocking
          (it runs under the scheduler gate).  [None] = undeclared: the
          command is treated as touching all state and serializes. *)
}

(** Build a {!handle}.  Capabilities a server does not declare default
    to [None]: no read fast path, every footprint undeclared. *)
let handle ?(read = fun _ -> None) ?(footprint = fun _ -> None) ~name ~state_of
    ~load_state ~mem_bytes ~stop () =
  { server_name = name; state_of; load_state; mem_bytes; stop; read; footprint }

(** A server program, supplied to a cluster or run directly against any
    runtime.  [install] populates the installation/working directories
    (run before the container's base snapshot is taken, like a package
    install); [boot] starts the server threads. *)
type server = {
  name : string;
  install : Crane_fs.Memfs.t -> unit;
  boot : api -> handle;
}
