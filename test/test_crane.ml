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

let test_bubbles_flow () =
  (* With no client traffic at all, the primary still inserts bubbles so
     replicas' logical clocks advance identically. *)
  let cluster = Cluster.create ~cfg:(test_cfg Instance.Full) ~server:echo_server () in
  Cluster.start ~checkpoints:false cluster;
  Cluster.run ~until:(Time.ms 500) cluster;
  Cluster.check_failures cluster;
  List.iter
    (fun (node, inst) ->
      let _, bubbles = Instance.seq_stats inst in
      Alcotest.(check bool) (node ^ " received bubbles") true (bubbles > 10))
    (Cluster.instances cluster)

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
        Alcotest.test_case "bubbles flow when idle" `Quick test_bubbles_flow;
        Alcotest.test_case "vhost frees closed connections" `Quick
          test_vhost_frees_closed;
      ] );
  ]
