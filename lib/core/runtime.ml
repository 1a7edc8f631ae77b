(** Runtime bindings: the same server code runs under any of these, the
    way a binary runs under different LD_PRELOAD interpositions.

    {!native} — Pthreads + direct sockets (un-replicated baseline).
    {!parrot} — DMT; blocking socket calls keep network-arrival
    nondeterminism via PARROT's socket queue ("w/ Parrot only").
    {!crane} — DMT + PAXOS-sequence admission (the full system, or plan
    II when the vhost's bubbling flag is off).
    {!paxos_only} — Pthreads + immediate PAXOS-ordered delivery. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Cores = Crane_sim.Cores
module Sock = Crane_socket.Sock
module Pthread = Crane_pthread.Pthread
module Dmt = Crane_dmt.Dmt
module Trace = Crane_trace.Trace

type t = {
  api : Api.api;
  output : Output_log.t;  (** outgoing socket calls, for §7.2 comparisons *)
  alive_conns : unit -> int;
}

(* Shared plumbing for the two direct-socket runtimes. *)
module type DIRECT_SOCKET = sig
  type listener = Sock.listener
  type conn = Sock.conn

  val listen : port:int -> listener
  val poll : listener -> unit
  val accept : listener -> conn
  val recv : conn -> max:int -> string
  val send : conn -> string -> unit
  val close : conn -> unit
  val conn_id : conn -> int
end

(* Monitored shared-memory cells (the sanitizer's [Shared.cell] API).
   Every read/write streams a "mem" event carrying a per-process location
   id and the declaration-site name; the DMT runtimes additionally
   serialize each access through the scheduler turn, reported as the
   acquire/release of pseudo-lock object 0 ("turn") — the happens-before
   edge that makes DMT cell accesses race-free by serialization. *)
module Cellkit = struct
  type 'a c = { id : int; site : string; mutable v : 'a }

  let make ~counter ~site v =
    incr counter;
    { id = !counter; site; v }

  let mem_ev ~eng ~node ~write (c : _ c) =
    if Engine.tracing eng then
      Engine.emit eng ~node (Trace.Mem { write; loc = c.id; site = c.site })

  (* The turn pseudo-lock is per scheduler lane: object 0 for lane 0 (the
     classic global turn) and negative ids for pool-mode worker lanes —
     [new_obj] ids start at 1, so negatives never collide with real
     objects.  Single-lane schedulers always report object 0, keeping
     their traces byte-identical to the pre-lane ones. *)
  let turn_ev ?(lane = 0) ~eng ~node op =
    if Engine.tracing eng then
      Engine.emit eng ~node
        (Trace.Sync
           ( op,
             { Trace.obj = (if lane = 0 then 0 else -lane); kind = Trace.Turn; label = "turn" } ))
end

(* The server-side pickup of an admitted request: the instant the recv
   wrapper hands bytes to server code marks the scheduler-wait -> execute
   boundary of that request's span on this replica's timeline. *)
let recv_return_ev ~eng ~node ~conn ~bytes =
  if bytes > 0 && Engine.tracing eng then
    Engine.emit eng ~node (Trace.Recv_return { conn; bytes })

type blocking_wrapper = { wrap : 'a. (unit -> 'a) -> 'a }

module Direct_socket = struct
  let make ~eng ~world ~node ~output ~open_conns ~(wrap_blocking : blocking_wrapper) =
    let module M = struct
      type listener = Sock.listener
      type conn = Sock.conn

      (* Expose the connection count as a flight-recorder gauge: the
         per-runtime counter of the un-replicated deployments. *)
      let note_conns () =
        if Engine.tracing eng then
          Engine.emit eng ~node ~ph:(Trace.Counter !open_conns) Trace.Open_conns

      let listen ~port = Sock.listen world ~node ~port
      let poll l = ignore (wrap_blocking.wrap (fun () -> Sock.wait_acceptable l))

      let accept l =
        let c = wrap_blocking.wrap (fun () -> Sock.accept l) in
        incr open_conns;
        note_conns ();
        c

      let recv c ~max = wrap_blocking.wrap (fun () -> Sock.recv c ~max)

      let send c payload =
        Output_log.record output ~conn:(Sock.id c) payload;
        try Sock.send c payload with Sock.Connection_closed -> ()

      let close c =
        if Sock.is_open c then begin
          decr open_conns;
          note_conns ()
        end;
        Sock.close c

      let conn_id = Sock.id
    end in
    (module M : DIRECT_SOCKET)
end

let native ~eng ~world ~node ~fs ~cores ~rng () =
  let pt = Pthread.create eng rng in
  let output = Output_log.create () in
  let open_conns = ref 0 in
  let module S =
    (val Direct_socket.make ~eng ~world ~node ~output ~open_conns
           ~wrap_blocking:{ wrap = (fun f -> f ()) })
  in
  let module M = struct
    let node = node
    let fs = fs
    let now () = Engine.now eng
    let sleep d = Engine.sleep eng d
    let spawn ~name body = Engine.spawn eng ~name body
    let work d = Cores.work cores d

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

    type 'a cell = 'a Cellkit.c

    let cell_counter = ref 0
    let cell ~name v = Cellkit.make ~counter:cell_counter ~site:name v

    let cell_get c =
      Cellkit.mem_ev ~eng ~node ~write:false c;
      c.Cellkit.v

    let cell_set c v =
      Cellkit.mem_ev ~eng ~node ~write:true c;
      c.Cellkit.v <- v

    include S

    (* Hints are PARROT-specific: a no-op under plain Pthreads. *)
    type soft_barrier = unit

    let soft_barrier ~n:_ ~timeout_ticks:_ = ()
    let soft_barrier_wait () = ()
  end in
  {
    api = (module M : Api.API);
    output;
    alive_conns = (fun () -> !open_conns);
  }

let parrot ?turn_cost ?idle_period ~eng ~world ~node ~fs ~cores () =
  let dmt = Dmt.create ?turn_cost ?idle_period eng in
  let output = Output_log.create () in
  let open_conns = ref 0 in
  let module S =
    (val Direct_socket.make ~eng ~world ~node ~output ~open_conns
           ~wrap_blocking:{ wrap = (fun f -> Dmt.block_external dmt f) })
  in
  let module M = struct
    let node = node
    let fs = fs
    let now () = Engine.now eng
    let sleep d = Engine.sleep eng d
    let spawn ~name body = Dmt.spawn dmt ~name body
    let work d = Cores.work cores d

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

    type 'a cell = 'a Cellkit.c

    let cell_counter = ref 0
    let cell ~name v = Cellkit.make ~counter:cell_counter ~site:name v

    (* Bracket the access in a scheduler turn (from DMT threads): the
       access order is decided by the deterministic round-robin, and the
       sanitizer sees it as acquire/release of the "turn" pseudo-lock.
       Accesses from outside the scheduler (bootstrap, checkpointing) go
       through unbracketed. *)
    let cell_access ~write c f =
      if Dmt.is_thread dmt then begin
        Dmt.get_turn dmt;
        Cellkit.turn_ev ~eng ~node Trace.Acquire;
        Cellkit.mem_ev ~eng ~node ~write c;
        let v = f () in
        Cellkit.turn_ev ~eng ~node Trace.Release;
        Dmt.put_turn dmt;
        v
      end
      else begin
        Cellkit.mem_ev ~eng ~node ~write c;
        f ()
      end

    let cell_get c = cell_access ~write:false c (fun () -> c.Cellkit.v)
    let cell_set c v = cell_access ~write:true c (fun () -> c.Cellkit.v <- v)

    include S

    type soft_barrier = Dmt.Soft_barrier.sb

    let soft_barrier ~n ~timeout_ticks = Dmt.Soft_barrier.create dmt ~n ~timeout_ticks
    let soft_barrier_wait = Dmt.Soft_barrier.wait
  end in
  ( {
      api = (module M : Api.API);
      output;
      alive_conns = (fun () -> !open_conns);
    },
    dmt )

let crane ~eng ~node ~fs ~cores ~dmt ~vhost () =
  let module M = struct
    let node = node
    let fs = fs
    let now () = Engine.now eng
    let sleep d = Engine.sleep eng d
    let spawn ~name body = Dmt.spawn dmt ~name body
    let work d = Cores.work cores d

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

    type 'a cell = 'a Cellkit.c

    let cell_counter = ref 0
    let cell ~name v = Cellkit.make ~counter:cell_counter ~site:name v

    let cell_access ~write c f =
      if Dmt.is_thread dmt then begin
        Dmt.get_turn dmt;
        let lane = Dmt.current_lane dmt in
        Cellkit.turn_ev ~lane ~eng ~node Trace.Acquire;
        Cellkit.mem_ev ~eng ~node ~write c;
        let v = f () in
        Cellkit.turn_ev ~lane ~eng ~node Trace.Release;
        Dmt.put_turn dmt;
        v
      end
      else begin
        Cellkit.mem_ev ~eng ~node ~write c;
        f ()
      end

    let cell_get c = cell_access ~write:false c (fun () -> c.Cellkit.v)
    let cell_set c v = cell_access ~write:true c (fun () -> c.Cellkit.v <- v)

    type listener = Vhost.vlistener
    type conn = Vhost.vconn

    let listen ~port = Vhost.listen vhost ~port
    let poll l = Vhost.poll vhost l
    let accept l = Vhost.accept vhost l

    let recv c ~max =
      let data = Vhost.recv vhost c ~max in
      recv_return_ev ~eng ~node ~conn:(Vhost.conn_id c)
        ~bytes:(String.length data);
      data

    let send c payload = Vhost.send vhost c payload
    let close c = Vhost.close vhost c
    let conn_id = Vhost.conn_id

    type soft_barrier = Dmt.Soft_barrier.sb

    let soft_barrier ~n ~timeout_ticks = Dmt.Soft_barrier.create dmt ~n ~timeout_ticks
    let soft_barrier_wait = Dmt.Soft_barrier.wait
  end in
  {
    api = (module M : Api.API);
    output = Vhost.output vhost;
    alive_conns = (fun () -> Vhost.open_conns vhost);
  }

let paxos_only ~eng ~node ~fs ~cores ~rng ~vhost () =
  let pt = Pthread.create eng rng in
  let module M = struct
    let node = node
    let fs = fs
    let now () = Engine.now eng
    let sleep d = Engine.sleep eng d
    let spawn ~name body = Engine.spawn eng ~name body
    let work d = Cores.work cores d

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

    type 'a cell = 'a Cellkit.c

    let cell_counter = ref 0
    let cell ~name v = Cellkit.make ~counter:cell_counter ~site:name v

    let cell_get c =
      Cellkit.mem_ev ~eng ~node ~write:false c;
      c.Cellkit.v

    let cell_set c v =
      Cellkit.mem_ev ~eng ~node ~write:true c;
      c.Cellkit.v <- v

    type listener = Vhost.vlistener
    type conn = Vhost.vconn

    let listen ~port = Vhost.listen vhost ~port
    let poll l = Vhost.poll vhost l
    let accept l = Vhost.accept vhost l

    let recv c ~max =
      let data = Vhost.recv vhost c ~max in
      recv_return_ev ~eng ~node ~conn:(Vhost.conn_id c)
        ~bytes:(String.length data);
      data

    let send c payload = Vhost.send vhost c payload
    let close c = Vhost.close vhost c
    let conn_id = Vhost.conn_id

    type soft_barrier = unit

    let soft_barrier ~n:_ ~timeout_ticks:_ = ()
    let soft_barrier_wait () = ()
  end in
  {
    api = (module M : Api.API);
    output = Vhost.output vhost;
    alive_conns = (fun () -> Vhost.open_conns vhost);
  }
