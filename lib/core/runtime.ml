(** Runtime bindings: the same server code runs under any of these, the
    way a binary runs under different LD_PRELOAD interpositions.

    A runtime is one {!sync} half (the libpthread layer) and one {!net}
    half (the socket layer), put together by {!create}:

    - {!Pthreads}: nondeterministic Pthreads; {!Dmt}: PARROT's
      deterministic scheduler, with cell accesses serialized through its
      turn;
    - {!Direct}: direct sockets, whose blocking calls go through the sync
      half's {e block} (PARROT's nondeterministic blocking-call path under
      DMT); {!Vhost}: socket calls admitted from the PAXOS sequence (the
      full system, or plan II when the vhost's bubbling flag is off).

    Native is [Pthreads]+[Direct], PARROT alone [Dmt]+[Direct], Paxos-only
    [Pthreads]+[Vhost] and CRANE [Dmt]+[Vhost]. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Cores = Crane_sim.Cores
module Sock = Crane_socket.Sock
module Pthread = Crane_pthread.Pthread
module Dmt = Crane_dmt.Dmt
module Trace = Crane_trace.Trace

type sync = Pthreads of Pthread.t | Dmt of Dmt.t
type net = Direct of Sock.world | Vhost of Vhost.t

type t = {
  api : Api.api;
  output : Output_log.t;  (** outgoing socket calls, for §7.2 comparisons *)
  alive_conns : unit -> int;
}

(* ---- the sync half ---- *)

module type SYNC_HALF = sig
  include Api.SYNC

  val block : (unit -> 'a) -> 'a
  (** Run a blocking socket call from a server thread. *)
end

(* Monitored shared-memory cells (the sanitizer's [Shared.cell] API).
   Every read/write streams a "mem" event carrying a per-process location
   id and the declaration-site name. *)
type 'a cell = { id : int; site : string; mutable v : 'a }

let make_cell counter ~name v =
  incr counter;
  { id = !counter; site = name; v }

let mem_ev ~eng ~node ~write c =
  if Engine.tracing eng then
    Engine.emit eng ~node (Trace.Mem { write; loc = c.id; site = c.site })

let pthreads ~eng ~node pt =
  let module M = struct
    let spawn ~name body = Engine.spawn eng ~name body

    type mutex = Pthread.Mutex.m
    type cond = Pthread.Cond.c
    type rwlock = Pthread.Rwlock.rw

    let mutex ?name () = Pthread.Mutex.create ?name pt
    let lock = Pthread.Mutex.lock
    let unlock = Pthread.Mutex.unlock
    let cond ?name () = Pthread.Cond.create ?name pt
    let cond_wait = Pthread.Cond.wait
    let cond_signal = Pthread.Cond.signal
    let cond_broadcast = Pthread.Cond.broadcast
    let rwlock ?name () = Pthread.Rwlock.create ?name pt
    let rdlock = Pthread.Rwlock.rdlock
    let wrlock = Pthread.Rwlock.wrlock
    let rwunlock = Pthread.Rwlock.unlock

    type nonrec 'a cell = 'a cell

    let cells = ref 0
    let cell ~name v = make_cell cells ~name v

    let cell_get c =
      mem_ev ~eng ~node ~write:false c;
      c.v

    let cell_set c v =
      mem_ev ~eng ~node ~write:true c;
      c.v <- v

    (* Hints are PARROT-specific: a no-op under plain Pthreads. *)
    type soft_barrier = unit

    let soft_barrier ~n:_ ~timeout_ticks:_ = ()
    let soft_barrier_wait () = ()
    let block f = f ()
  end in
  (module M : SYNC_HALF)

let dmt ~eng ~node dmt =
  let module M = struct
    let spawn ~name body = Dmt.spawn dmt ~name body

    type mutex = Dmt.Mutex.m
    type cond = Dmt.Cond.c
    type rwlock = Dmt.Rwlock.rw

    let mutex ?name () = Dmt.Mutex.create ?name dmt
    let lock = Dmt.Mutex.lock
    let unlock = Dmt.Mutex.unlock
    let cond ?name () = Dmt.Cond.create ?name dmt
    let cond_wait = Dmt.Cond.wait
    let cond_signal = Dmt.Cond.signal
    let cond_broadcast = Dmt.Cond.broadcast
    let rwlock ?name () = Dmt.Rwlock.create ?name dmt
    let rdlock = Dmt.Rwlock.rdlock
    let wrlock = Dmt.Rwlock.wrlock
    let rwunlock = Dmt.Rwlock.unlock

    type nonrec 'a cell = 'a cell

    let cells = ref 0
    let cell ~name v = make_cell cells ~name v

    (* The turn pseudo-lock is per scheduler lane: object 0 for lane 0
       (the classic global turn) and negative ids for pool-mode worker
       lanes — [new_obj] ids start at 1, so negatives never collide with
       real objects.  A single-lane scheduler always reports lane 0. *)
    let turn_ev lane op =
      if Engine.tracing eng then
        Engine.emit eng ~node
          (Trace.Sync
             ( op,
               { Trace.obj = (if lane = 0 then 0 else -lane); kind = Trace.Turn; label = "turn" } ))

    (* Bracket the access in a scheduler turn (from DMT threads): the
       access order is decided by the deterministic round-robin, and the
       sanitizer sees it as acquire/release of the "turn" pseudo-lock —
       the happens-before edge that makes DMT cell accesses race-free by
       serialization.  Accesses from outside the scheduler (bootstrap,
       checkpointing) go through unbracketed. *)
    let cell_access ~write c f =
      if Dmt.is_thread dmt then begin
        Dmt.get_turn dmt;
        let lane = Dmt.current_lane dmt in
        turn_ev lane Trace.Acquire;
        mem_ev ~eng ~node ~write c;
        let v = f () in
        turn_ev lane Trace.Release;
        Dmt.put_turn dmt;
        v
      end
      else begin
        mem_ev ~eng ~node ~write c;
        f ()
      end

    let cell_get c = cell_access ~write:false c (fun () -> c.v)
    let cell_set c v = cell_access ~write:true c (fun () -> c.v <- v)

    type soft_barrier = Dmt.Soft_barrier.sb

    let soft_barrier ~n ~timeout_ticks = Dmt.Soft_barrier.create dmt ~n ~timeout_ticks
    let soft_barrier_wait = Dmt.Soft_barrier.wait

    (* PARROT's blocking-call path: off the run queue around the call,
       rejoining in completion order. *)
    let block f = Dmt.block_external dmt f
  end in
  (module M : SYNC_HALF)

(* ---- the socket half ---- *)

module type NET_HALF = sig
  include Api.NET

  val output : Output_log.t
  val alive_conns : unit -> int
end

let direct ~eng ~node (module S : SYNC_HALF) world =
  let module M = struct
    type listener = Sock.listener
    type conn = Sock.conn

    let output = Output_log.create ()
    let open_conns = ref 0
    let alive_conns () = !open_conns

    (* Expose the connection count as a flight-recorder gauge: the
       per-runtime counter of the un-replicated deployments. *)
    let note_conns () =
      if Engine.tracing eng then
        Engine.emit eng ~node ~ph:(Trace.Counter !open_conns) Trace.Open_conns

    let listen ~port = Sock.listen world ~node ~port
    let poll l = ignore (S.block (fun () -> Sock.wait_acceptable l))

    let accept l =
      let c = S.block (fun () -> Sock.accept l) in
      incr open_conns;
      note_conns ();
      c

    let recv c ~max = S.block (fun () -> Sock.recv c ~max)

    let send c payload =
      Output_log.record output ~conn:(Sock.id c) payload;
      try Sock.send c payload with Sock.Connection_closed -> ()

    (* A connection counts until the server closes it, even after the
       peer's EOF. *)
    let close c =
      if not (Sock.closed c) then begin
        decr open_conns;
        note_conns ()
      end;
      Sock.close c

    let conn_id = Sock.id
  end in
  (module M : NET_HALF)

let vhost ~eng ~node vhost =
  let module M = struct
    type listener = Vhost.vlistener
    type conn = Vhost.vconn

    let output = Vhost.output vhost
    let alive_conns () = Vhost.open_conns vhost
    let listen ~port = Vhost.listen vhost ~port
    let poll l = Vhost.poll vhost l
    let accept l = Vhost.accept vhost l

    (* The server-side pickup of an admitted request: the instant the
       recv wrapper hands bytes to server code marks the scheduler-wait
       -> execute boundary of that request's span on this replica's
       timeline. *)
    let recv c ~max =
      let data = Vhost.recv vhost c ~max in
      if data <> "" && Engine.tracing eng then
        Engine.emit eng ~node
          (Trace.Recv_return { conn = Vhost.conn_id c; bytes = String.length data });
      data

    let send c payload = Vhost.send vhost c payload
    let close c = Vhost.close vhost c
    let conn_id = Vhost.conn_id
  end in
  (module M : NET_HALF)

let create ~eng ~node ~fs ~cores sync net =
  let module S =
    (val match sync with Pthreads pt -> pthreads ~eng ~node pt | Dmt d -> dmt ~eng ~node d)
  in
  let module N =
    (val match net with
         | Direct world -> direct ~eng ~node (module S) world
         | Vhost v -> vhost ~eng ~node v)
  in
  let module M = struct
    let node = node
    let fs = fs
    let now () = Engine.now eng
    let sleep d = Engine.sleep eng d
    let work d = Cores.work cores d

    include S
    include N
  end in
  { api = (module M : Api.API); output = N.output; alive_conns = N.alive_conns }
