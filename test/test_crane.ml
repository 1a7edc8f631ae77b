(* End-to-end tests of the CRANE core: a small echo server replicated
   across three replicas, driven by real clients over the simulated
   network — consistency, failover, checkpoint/restore. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Event = Crane_core.Event
module Paxos_seq = Crane_core.Paxos_seq
module Output_log = Crane_core.Output_log
module Instance = Crane_core.Instance
module Vhost = Crane_core.Vhost
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone

(* A minimal multithreaded server: listener + per-connection handlers,
   one shared counter behind a mutex. *)
let echo_server : Api.server =
  {
    Api.name = "echo";
    install = (fun fs -> Crane_fs.Memfs.write fs ~path:"install/echo.conf" "workers=4");
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let served = ref 0 in
        let stopped = ref false in
        let mu = R.mutex () in
        R.spawn ~name:"echo-listener" (fun () ->
            let l = R.listen ~port:80 in
            while not !stopped do
              R.poll l;
              let c = R.accept l in
              R.spawn ~name:"echo-handler" (fun () ->
                  let rec serve () =
                    let req = R.recv c ~max:4096 in
                    if req = "" then R.close c
                    else begin
                      R.lock mu;
                      incr served;
                      let n = !served in
                      R.unlock mu;
                      R.send c (Printf.sprintf "echo[%d]:%s" n req);
                      serve ()
                    end
                  in
                  serve ())
            done);
        Api.handle ~name:"echo"
          ~state_of:(fun () -> string_of_int !served)
          ~load_state:(fun s -> served := int_of_string s)
          ~mem_bytes:(fun () -> 1_000_000)
          ~stop:(fun () -> stopped := true)
          ());
  }

let fast_paxos =
  {
    Crane_paxos.Paxos.default_config with
    Crane_paxos.Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    lease_duration = Time.ms 150;
  }

let test_cfg mode =
  { Instance.default_config with mode; paxos = fast_paxos; cores = 8 }

(* A client: connect to the given node, send one request, read the full
   response, close.  Returns None if refused / EOF before data. *)
let one_request ?(timeout = Time.sec 2) cluster ~from ~node ~msg =
  let world = Cluster.world cluster in
  match Sock.connect world ~from ~node ~port:80 with
  | exception Sock.Connection_refused _ -> None
  | conn ->
    Sock.send conn msg;
    let resp = Sock.recv ~timeout conn ~max:4096 in
    Sock.close conn;
    if resp = "" then None else Some resp

(* Retry against all members until a response arrives (clients finding
   the new primary after failover). *)
let request_with_retry cluster ~from ~msg =
  let eng = Cluster.engine cluster in
  let rec go attempts =
    if attempts > 50 then None
    else
      let node =
        match Cluster.primary_node cluster with
        | Some n -> n
        | None -> List.nth (Cluster.members cluster) (attempts mod 3)
      in
      match one_request cluster ~from ~node ~msg with
      | Some r -> Some r
      | None ->
        Engine.sleep eng (Time.ms 100);
        go (attempts + 1)
  in
  go 0

let test_cluster_echo () =
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let responses = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (10 * i));
        match one_request cluster ~from:(Printf.sprintf "c%d" i) ~node:"replica1"
                ~msg:(Printf.sprintf "hello%d" i)
        with
        | Some r -> responses := r :: !responses
        | None -> ())
  done;
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check int) "all clients answered" 5 (List.length !responses);
  List.iter
    (fun r ->
      Alcotest.(check bool) ("well-formed response: " ^ r) true
        (String.length r > 5 && String.sub r 0 5 = "echo["))
    !responses

let test_cluster_outputs_consistent () =
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  for i = 1 to 10 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (3 * i));
        ignore
          (one_request cluster ~from:(Printf.sprintf "c%d" i) ~node:"replica1"
             ~msg:(Printf.sprintf "req%d" i)))
  done;
  Cluster.run ~until:(Time.sec 4) cluster;
  Cluster.check_failures cluster;
  match Cluster.outputs cluster with
  | [ (_, o1); (_, o2); (_, o3) ] ->
    Alcotest.(check bool) "replicas produced output" true (Output_log.length o1 >= 10);
    Alcotest.(check bool) "1=2" true (Output_log.equal o1 o2);
    Alcotest.(check bool) "1=3" true (Output_log.equal o1 o3)
  | _ -> Alcotest.fail "expected three replicas"

let test_cluster_failover () =
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let before = ref None and after = ref None in
  Engine.spawn eng ~name:"client-before" (fun () ->
      Engine.sleep eng (Time.ms 10);
      before := request_with_retry cluster ~from:"c1" ~msg:"before");
  Engine.at eng (Time.ms 300) (fun () -> Cluster.kill cluster "replica1");
  Engine.spawn eng ~name:"client-after" (fun () ->
      Engine.sleep eng (Time.ms 400);
      after := request_with_retry cluster ~from:"c2" ~msg:"after");
  Cluster.run ~until:(Time.sec 10) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check bool) "served before failover" true (!before <> None);
  Alcotest.(check bool) "served after failover" true (!after <> None);
  match Cluster.primary_node cluster with
  | Some n -> Alcotest.(check bool) "new primary is a backup" true (n <> "replica1")
  | None -> Alcotest.fail "no primary after failover"

let test_checkpoint_restart () =
  let cfg = { (test_cfg Instance.Full) with checkpoint_period = Time.ms 500 } in
  let cluster = Cluster.create ~cfg ~server:echo_server () in
  Cluster.start ~checkpoints:true cluster;
  let eng = Cluster.engine cluster in
  for i = 1 to 6 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (30 * i));
        ignore
          (one_request cluster ~from:(Printf.sprintf "c%d" i) ~node:"replica1"
             ~msg:(Printf.sprintf "req%d" i)))
  done;
  (* Kill the third replica after some load, restart it later from the
     backup's checkpoint, then add more load. *)
  Engine.at eng (Time.ms 250) (fun () -> Cluster.kill cluster "replica3");
  Engine.at eng (Time.sec 2) (fun () -> ignore (Cluster.restart cluster "replica3"));
  for i = 7 to 9 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.sec 8 + Time.ms (30 * i));
        ignore
          (one_request cluster ~from:(Printf.sprintf "c%d" i) ~node:"replica1"
             ~msg:(Printf.sprintf "req%d" i)))
  done;
  Cluster.run ~until:(Time.sec 15) cluster;
  Cluster.check_failures cluster;
  (* The restarted replica's server state must match the others. *)
  let states =
    List.map
      (fun (n, inst) -> (n, inst.Instance.handle.Api.state_of ()))
      (Cluster.instances cluster)
  in
  match states with
  | [ (_, s1); (_, s2); (_, s3) ] ->
    Alcotest.(check string) "replica2 state matches" s1 s2;
    Alcotest.(check string) "restarted replica3 state matches" s1 s3;
    Alcotest.(check bool) "served requests" true (int_of_string s1 >= 6)
  | _ -> Alcotest.fail "expected three replicas"

let test_standalone_native_and_parrot () =
  List.iter
    (fun mode ->
      let sa = Standalone.boot ~mode ~server:echo_server () in
      let eng = Standalone.engine sa in
      let resp = ref None in
      Engine.spawn eng ~name:"client" (fun () ->
          Engine.sleep eng (Time.ms 1);
          let conn = Sock.connect (Standalone.world sa) ~from:"cli" ~node:"server" ~port:80 in
          Sock.send conn "ping";
          resp := Some (Sock.recv conn ~max:4096);
          Sock.close conn);
      Engine.at eng (Time.ms 500) (fun () -> Standalone.stop sa);
      Engine.run ~until:(Time.sec 1) eng;
      Standalone.check_failures sa;
      match !resp with
      | Some r -> Alcotest.(check bool) "echoed" true (String.length r > 5)
      | None -> Alcotest.fail "no response")
    [ Standalone.Native; Standalone.Parrot ]

(* ---- Time bubbles: proposed only when a thread can spend them ---- *)

module Dmt = Crane_dmt.Dmt
module Trace = Crane_trace.Trace

let dmt_clock (inst : Instance.t) =
  match inst.Instance.dmt with Some d -> Dmt.clock d | None -> -1

let bubbles_committed cluster =
  List.map (fun (_, inst) -> snd (Instance.seq_stats inst)) (Cluster.instances cluster)

(* A cluster whose trace feeds [sink] with each event and the logical
   clock of the replica that emitted it, read at the emitting instant. *)
let traced_cluster ~server sink =
  let tr = Trace.create ~retain:false () in
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~trace:tr ~server () in
  Trace.add_sink tr (fun ev ->
      match Cluster.instance cluster ev.Trace.node with
      | Some inst -> sink ev (dmt_clock inst)
      | None -> ());
  Cluster.start ~checkpoints:false cluster;
  cluster

(* With every server thread parked in poll, nothing can observe the
   logical clock, so a settled idle cluster proposes no bubble at all,
   and its replicas' clocks stand still at the same value. *)
let test_idle_cluster_no_bubbles () =
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  Cluster.run ~until:(Time.sec 1) cluster;
  let before = bubbles_committed cluster in
  Cluster.run ~until:(Time.ms 1500) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check (list int)) "no bubble committed over 500 ms of idleness" before
    (bubbles_committed cluster);
  match List.map (fun (_, inst) -> dmt_clock inst) (Cluster.instances cluster) with
  | c :: rest -> List.iter (Alcotest.(check int) "replica clocks agree" c) rest
  | [] -> Alcotest.fail "no replicas"

(* One server thread alternates compute and sleep with a mutex round
   between, and no client ever sends: it is runnable while the sequence
   is empty, so the gate requests bubbles for it.  Every replica runs all
   rounds, each at the same logical clock on every replica.  The bubbles
   drain at the thread's synchronization rate, so a handful covers all
   forty rounds; draining each at once would cost one bubble a round. *)
let rounds = 40

let ticker_server : Api.server =
  {
    echo_server with
    Api.name = "ticker";
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let n = ref 0 in
        let mu = R.mutex ~name:"ticker" () in
        R.spawn ~name:"ticker" (fun () ->
            for i = 1 to rounds do
              if i mod 2 = 0 then R.work (Time.us 300) else R.sleep (Time.us 300);
              R.lock mu;
              incr n;
              R.unlock mu
            done);
        Api.handle ~name:"ticker"
          ~state_of:(fun () -> string_of_int !n)
          ~load_state:(fun s -> n := int_of_string s)
          ~mem_bytes:(fun () -> 1_000_000)
          ~stop:ignore ());
  }

let test_busy_thread_gets_bubbles () =
  let acquired = Hashtbl.create 3 in
  let cluster =
    traced_cluster ~server:ticker_server (fun ev clock ->
        match ev.Trace.event with
        | Trace.Sync (Trace.Acquire, { Trace.label = "ticker"; _ }) ->
          Hashtbl.replace acquired ev.Trace.node
            (clock :: Option.value (Hashtbl.find_opt acquired ev.Trace.node) ~default:[])
        | _ -> ())
  in
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let clocks =
    List.map
      (fun (node, inst) ->
        Alcotest.(check string) (node ^ " ran every round") (string_of_int rounds)
          (inst.Instance.handle.Api.state_of ());
        List.rev (Option.value (Hashtbl.find_opt acquired node) ~default:[]))
      (Cluster.instances cluster)
  in
  (match clocks with
  | c :: rest ->
    Alcotest.(check int) "every round traced" rounds (List.length c);
    List.iter (Alcotest.(check (list int)) "rounds at the same clocks" c) rest
  | [] -> Alcotest.fail "no replicas");
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "bubbles drain at the sync rate (%d)" b) true
        (b >= 1 && b <= rounds / 4))
    (bubbles_committed cluster)

(* A thread parked alone at a soft barrier leaves the idle thread alone
   in the run queue, but the barrier's timeout is a pending tick hook:
   bubbles still come, and the barrier releases with no input at all. *)
let test_soft_barrier_fires_idle () =
  let released = ref [] in
  let server =
    {
      echo_server with
      Api.name = "hinted";
      boot =
        (fun api ->
          let module R = (val api : Api.API) in
          let passed = ref 0 in
          let sb = R.soft_barrier ~n:2 ~timeout_ticks:5000 in
          R.spawn ~name:"lonely" (fun () ->
              R.soft_barrier_wait sb;
              passed := 1;
              released := R.node :: !released);
          Api.handle ~name:"hinted"
            ~state_of:(fun () -> string_of_int !passed)
            ~load_state:(fun s -> passed := int_of_string s)
            ~mem_bytes:(fun () -> 1_000_000)
            ~stop:ignore ());
    }
  in
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server () in
  Cluster.start ~checkpoints:false cluster;
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check int) "released on every replica" 3 (List.length !released);
  List.iter
    (fun (node, inst) ->
      Alcotest.(check string) (node ^ " passed the barrier") "1"
        (inst.Instance.handle.Api.state_of ()))
    (Cluster.instances cluster)

(* With every server thread parked, a bubble drains at once: the call
   decided right behind it is admitted within microseconds of reaching
   each replica's sequence, at the same logical clock everywhere. *)
let test_call_behind_bubble () =
  let appends = Hashtbl.create 3 and admits = Hashtbl.create 3 in
  let cluster =
    traced_cluster ~server:echo_server (fun ev clock ->
        let node = ev.Trace.node in
        match ev.Trace.event with
        | Trace.Append { bubble; index; _ } ->
          Hashtbl.replace appends node
            ((bubble, index, ev.Trace.ts)
            :: Option.value (Hashtbl.find_opt appends node) ~default:[])
        | Trace.Admit { index; _ } ->
          if not (Hashtbl.mem admits (node, index)) then
            Hashtbl.replace admits (node, index) (ev.Trace.ts, clock)
        | _ -> ())
  in
  Cluster.run ~until:(Time.sec 1) cluster;
  let _, primary = Option.get (Cluster.primary cluster) in
  let eng = Cluster.engine cluster in
  let reply = ref None in
  Engine.at eng (Time.sec 1) (fun () ->
      primary.Instance.vhost.Vhost.handlers.Vhost.request_bubble 1000;
      Engine.spawn eng ~name:"client" (fun () ->
          reply := one_request cluster ~from:"c1" ~node:(Instance.node primary) ~msg:"hi"));
  Cluster.run ~until:(Time.ms 1500) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check bool) "request answered" true (!reply <> None);
  let admitted =
    List.map
      (fun (node, _) ->
        (* The first call appended after the injected bubble. *)
        let log = List.rev (Option.value (Hashtbl.find_opt appends node) ~default:[]) in
        let rec behind = function
          | (true, _, bts) :: (false, ix, ts) :: _ when bts >= Time.sec 1 -> (ix, ts)
          | _ :: rest -> behind rest
          | [] -> Alcotest.failf "%s: no call decided right behind a bubble" node
        in
        let ix, appended = behind log in
        match Hashtbl.find_opt admits (node, ix) with
        | Some (ts, clock) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s admits within 5 us of the append (%d ns)" node
               (ts - appended))
            true
            (ts - appended <= Time.us 5);
          (ix, clock)
        | None -> Alcotest.failf "%s never admitted index %d" node ix)
      (Cluster.instances cluster)
  in
  match admitted with
  | a :: rest ->
    List.iter (Alcotest.(check (pair int int)) "same index, same logical clock" a) rest
  | [] -> Alcotest.fail "no replicas"

(* A closed connection leaves every replica's vhost table: after twenty
   echo requests, each connected and closed by its client, the table on
   each replica holds exactly its open connections, and none are open. *)
let test_vhost_frees_closed () =
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let served = ref 0 in
  for i = 1 to 20 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (5 * i));
        match
          one_request cluster ~from:(Printf.sprintf "c%d" i) ~node:"replica1"
            ~msg:(Printf.sprintf "req%d" i)
        with
        | Some _ -> incr served
        | None -> ())
  done;
  Cluster.run ~until:(Time.sec 3) cluster;
  Cluster.check_failures cluster;
  Alcotest.(check int) "all requests served" 20 !served;
  List.iter
    (fun (node, inst) ->
      let vhost = inst.Instance.vhost in
      Alcotest.(check int) (node ^ ": no connection left open") 0
        (Vhost.open_conns vhost);
      Alcotest.(check int) (node ^ ": table holds only open connections")
        (Vhost.open_conns vhost) (Hashtbl.length vhost.Vhost.conns))
    (Cluster.instances cluster)

(* ---- Runtime conformance: each half wired where it belongs ---- *)

module Runtime = Crane_core.Runtime

(* An echo server whose handler threads bump a monitored cell per
   request, and which counts its own sends per node in [sends]. *)
let cell_echo_server sends : Api.server =
  {
    Api.name = "cell-echo";
    install = ignore;
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let hits = R.cell ~name:"echo.hits" 0 in
        let stopped = ref false in
        R.spawn ~name:"echo-listener" (fun () ->
            let l = R.listen ~port:80 in
            while not !stopped do
              R.poll l;
              let c = R.accept l in
              R.spawn ~name:"echo-handler" (fun () ->
                  let rec serve () =
                    match R.recv c ~max:4096 with
                    | "" -> R.close c
                    | req ->
                      R.cell_set hits (R.cell_get hits + 1);
                      R.send c req;
                      Hashtbl.replace sends R.node
                        (1 + Option.value ~default:0 (Hashtbl.find_opt sends R.node));
                      serve ()
                  in
                  serve ())
            done);
        Api.handle ~name:"cell-echo" ~state_of:(fun () -> "") ~load_state:ignore
          ~mem_bytes:(fun () -> 0) ~stop:(fun () -> stopped := true) ());
  }

(* Boot [cell_echo_server] under one (sync, net) cell of the runtime
   product — Direct through Standalone, Vhost through a cluster — drive
   three clients of two requests each, and check what each half alone
   must produce: the direct half's connection gauge, the vhost half's
   recv_return marks, turn-bracketed cells under DMT only, connections
   released after the clients close, and an output log entry per send. *)
let conformance ~dmt ~vhost () =
  let cell =
    Printf.sprintf "%s+%s" (if dmt then "dmt" else "pthreads") (if vhost then "vhost" else "direct")
  in
  let tr = Trace.create ~retain:false () in
  let gauges = ref 0 and recv_returns = ref 0 and mems = ref 0 and bracketed = ref 0 in
  let in_turn = Hashtbl.create 16 in
  Trace.add_sink tr (fun ev ->
      match ev.Trace.event with
      | Trace.Open_conns -> incr gauges
      | Trace.Recv_return _ -> incr recv_returns
      | Trace.Sync (Trace.Acquire, { Trace.kind = Trace.Turn; _ }) ->
        Hashtbl.replace in_turn ev.Trace.tid ()
      | Trace.Sync (Trace.Release, { Trace.kind = Trace.Turn; _ }) ->
        Hashtbl.remove in_turn ev.Trace.tid
      | Trace.Mem _ ->
        incr mems;
        if Hashtbl.mem in_turn ev.Trace.tid then incr bracketed
      | _ -> ());
  let sends = Hashtbl.create 4 in
  let server = cell_echo_server sends in
  let eng, world, node, runtimes, check_failures =
    if vhost then begin
      let mode = if dmt then Instance.Full else Instance.Paxos_only in
      let cluster = Cluster.create ~cfg:(test_cfg mode) ~trace:tr ~server () in
      Cluster.start ~checkpoints:false cluster;
      ( Cluster.engine cluster, Cluster.world cluster, "replica1",
        (fun () ->
          List.map (fun (n, i) -> (n, i.Instance.runtime)) (Cluster.instances cluster)),
        fun () -> Cluster.check_failures cluster )
    end
    else begin
      let mode = if dmt then Standalone.Parrot else Standalone.Native in
      let sa = Standalone.boot ~mode ~trace:tr ~server () in
      ( Standalone.engine sa, Standalone.world sa, "server",
        (fun () -> [ ("server", sa.Standalone.runtime) ]),
        fun () -> Standalone.check_failures sa )
    end
  in
  let replies = ref 0 in
  for i = 1 to 3 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (10 * i));
        let conn = Sock.connect world ~from:(Printf.sprintf "c%d" i) ~node ~port:80 in
        for j = 1 to 2 do
          Sock.send conn (Printf.sprintf "req%d.%d" i j);
          if Sock.recv ~timeout:(Time.sec 1) conn ~max:4096 <> "" then incr replies
        done;
        Sock.close conn)
  done;
  Engine.run ~until:(Time.sec 2) eng;
  check_failures ();
  let check what = Alcotest.(check bool) (cell ^ ": " ^ what) true in
  Alcotest.(check int) (cell ^ ": every request answered") 6 !replies;
  check "open_conns gauge only from the direct half" (vhost = (!gauges = 0));
  check "recv_return only from the vhost half" (vhost = (!recv_returns > 0));
  check "server threads touched the cell" (!mems > 0);
  check "cells turn-bracketed exactly under DMT"
    (!bracketed = if dmt then !mems else 0);
  List.iter
    (fun (n, (rt : Runtime.t)) ->
      Alcotest.(check int) (cell ^ ": " ^ n ^ " released every connection") 0
        (rt.Runtime.alive_conns ());
      Alcotest.(check int) (cell ^ ": " ^ n ^ " logged every send")
        (Option.value ~default:0 (Hashtbl.find_opt sends n))
        (Output_log.total rt.Runtime.output))
    (runtimes ())

let suite =
  [
    ( "crane.e2e",
      [
        Alcotest.test_case "cluster echo" `Quick test_cluster_echo;
        Alcotest.test_case "outputs consistent" `Quick test_cluster_outputs_consistent;
        Alcotest.test_case "failover" `Quick test_cluster_failover;
        Alcotest.test_case "checkpoint restart" `Quick test_checkpoint_restart;
        Alcotest.test_case "standalone native+parrot" `Quick
          test_standalone_native_and_parrot;
        Alcotest.test_case "idle cluster proposes no bubbles" `Quick
          test_idle_cluster_no_bubbles;
        Alcotest.test_case "busy thread gets bubbles" `Quick test_busy_thread_gets_bubbles;
        Alcotest.test_case "soft-barrier timeout fires idle" `Quick
          test_soft_barrier_fires_idle;
        Alcotest.test_case "call behind a bubble admitted at once" `Quick
          test_call_behind_bubble;
        Alcotest.test_case "vhost frees closed connections" `Quick
          test_vhost_frees_closed;
      ] );
    ( "crane.runtime",
      [
        Alcotest.test_case "pthreads+direct conformance" `Quick
          (conformance ~dmt:false ~vhost:false);
        Alcotest.test_case "dmt+direct conformance" `Quick (conformance ~dmt:true ~vhost:false);
        Alcotest.test_case "pthreads+vhost conformance" `Quick
          (conformance ~dmt:false ~vhost:true);
        Alcotest.test_case "dmt+vhost conformance" `Quick (conformance ~dmt:true ~vhost:true);
      ] );
  ]
