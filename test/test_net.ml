(* Tests for the network fabric and the TCP-like socket layer. *)

module Time = Crane_sim.Time
module Rng = Crane_sim.Rng
module Engine = Crane_sim.Engine
module Fabric = Crane_net.Fabric
module Sock = Crane_socket.Sock
module Trace = Crane_trace.Trace

type Fabric.message += Ping of int

let setup ?(jitter = Time.us 30) () =
  let eng = Engine.create () in
  let fabric = Fabric.create eng (Rng.create 1) in
  Fabric.set_latency fabric ~base:(Time.us 50) ~jitter;
  (eng, fabric)

let ep node port = { Fabric.node; port }

(* ------------------------------------------------------------------ *)
(* Fabric *)

let test_fabric_delivery () =
  let eng, fabric = setup () in
  let got = ref [] in
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ msg ->
      match msg with Ping n -> got := n :: !got | _ -> ());
  for i = 1 to 5 do
    Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping i)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo per link" [ 1; 2; 3; 4; 5 ] (List.rev !got);
  Alcotest.(check int) "delivered count" 5 (Fabric.delivered fabric)

let test_fabric_latency_positive () =
  let eng, fabric = setup () in
  let arrival = ref Time.zero in
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ _ -> arrival := Engine.now eng);
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check bool) "at least base latency" true (!arrival >= Time.us 50)

let test_fabric_partition () =
  let eng, fabric = setup () in
  let got = ref 0 in
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ _ -> incr got);
  Fabric.partition fabric [ "a" ] [ "b" ];
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check int) "partition blocks" 0 !got;
  Fabric.heal fabric;
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check int) "heal restores" 1 !got

(* A one-way partition blocks one direction only — the asymmetric failure
   of paper §7.6 where a primary keeps sending heartbeats that backups
   receive while their replies are dropped. *)
let test_fabric_partition_oneway () =
  let eng, fabric = setup () in
  let at_a = ref 0 and at_b = ref 0 in
  Fabric.bind fabric (ep "a" 7) (fun ~src:_ _ -> incr at_a);
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ _ -> incr at_b);
  Fabric.partition_oneway fabric ~from:[ "a" ] ~to_:[ "b" ];
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Fabric.send fabric ~src:(ep "b" 1) ~dst:(ep "a" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check int) "a->b blocked" 0 !at_b;
  Alcotest.(check int) "b->a still delivers" 1 !at_a;
  Alcotest.(check int) "one active partition" 1 (Fabric.partitions fabric);
  Fabric.heal fabric;
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check int) "heal restores a->b" 1 !at_b

let test_fabric_node_down () =
  let eng, fabric = setup () in
  let got = ref 0 in
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ _ -> incr got);
  Fabric.node_down fabric "b";
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Engine.run eng;
  Alcotest.(check int) "down node drops" 0 !got;
  Fabric.node_up fabric "b";
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 1);
  Engine.run eng;
  Alcotest.(check int) "up node receives" 1 !got

let test_fabric_loss () =
  let eng, fabric = setup () in
  Fabric.set_loss fabric 1.0;
  let got = ref 0 in
  Fabric.bind fabric (ep "b" 7) (fun ~src:_ _ -> incr got);
  for _ = 1 to 10 do
    Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0)
  done;
  Engine.run eng;
  Alcotest.(check int) "full loss" 0 !got;
  Alcotest.(check int) "drops counted" 10 (Fabric.dropped fabric)

(* Node state as sends and deliveries see it, told apart by the drop
   reasons the flight recorder gets. *)
let test_fabric_node_states () =
  let eng, fabric = setup () in
  Engine.set_trace eng (Trace.create ());
  let got = ref [] in
  Fabric.bind fabric (ep "b" 7) (fun ~src msg ->
      match msg with Ping n -> got := (src.Fabric.node, n) :: !got | _ -> ());
  (* "a" was never named: its first send brings it up, so the message
     survives the delivery-time check of both ends. *)
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 0);
  Fabric.node_down fabric "c";
  Fabric.send fabric ~src:(ep "c" 1) ~dst:(ep "b" 7) (Ping 1);
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "never-bound" 7) (Ping 2);
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 8) (Ping 3);
  Engine.run eng;
  let reasons =
    List.filter_map
      (fun e -> match e.Trace.event with Trace.Drop { reason; _ } -> Some reason | _ -> None)
      (Trace.events (Engine.trace eng))
  in
  Alcotest.(check (list (pair string int))) "only the first send arrives" [ ("a", 0) ] !got;
  Alcotest.(check (list string)) "drop reasons" [ "partitioned"; "src_down"; "unbound" ]
    (List.sort compare reasons);
  Alcotest.(check int) "drops counted" 3 (Fabric.dropped fabric);
  (* A node taken down stays down: sending does not revive it. *)
  Fabric.node_down fabric "a";
  Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping 4);
  Engine.run eng;
  Alcotest.(check int) "a downed source drops" 4 (Fabric.dropped fabric);
  Alcotest.(check int) "nothing more arrives" 1 (List.length !got)

(* A link's jitter stream and FIFO floor are its own: the arrival times on
   a -> b are the same whether or not other links carry traffic. *)
let test_fabric_links_independent () =
  let arrivals ~busy =
    let eng, fabric = setup () in
    let times = ref [] in
    Fabric.bind fabric (ep "b" 7) (fun ~src msg ->
        match msg with
        | Ping _ when src.Fabric.node = "a" -> times := Engine.now eng :: !times
        | _ -> ());
    Fabric.bind fabric (ep "d" 7) (fun ~src:_ _ -> ());
    for i = 1 to 20 do
      Engine.at eng (Time.us (7 * i * i)) (fun () ->
          if busy then begin
            Fabric.send fabric ~src:(ep "c" 1) ~dst:(ep "b" 7) (Ping i);
            Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "d" 7) (Ping i);
            Fabric.send fabric ~src:(ep "b" 1) ~dst:(ep "a" 7) (Ping i)
          end;
          Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 7) (Ping i))
    done;
    Engine.run eng;
    List.rev !times
  in
  let quiet = arrivals ~busy:false in
  Alcotest.(check int) "every send arrives" 20 (List.length quiet);
  Alcotest.(check (list int)) "same arrival times" quiet (arrivals ~busy:true)

let prop_fabric_fifo_per_link =
  QCheck.Test.make ~name:"fabric preserves per-link order under jitter"
    ~count:30 QCheck.small_nat (fun seed ->
      let eng = Engine.create () in
      let fabric = Fabric.create eng (Rng.create seed) in
      Fabric.set_latency fabric ~base:(Time.us 10) ~jitter:(Time.us 200);
      let got = ref [] in
      Fabric.bind fabric (ep "b" 1) (fun ~src:_ msg ->
          match msg with Ping n -> got := n :: !got | _ -> ());
      let n = 50 in
      for i = 1 to n do
        Fabric.send fabric ~src:(ep "a" 1) ~dst:(ep "b" 1) (Ping i)
      done;
      Engine.run eng;
      List.rev !got = List.init n (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Sockets *)

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

let test_sock_echo () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let reply = ref "" in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      let c = Sock.accept l in
      let req = Sock.recv c ~max:4096 in
      Sock.send c ("echo:" ^ req);
      Sock.close c);
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 1);
      let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      Sock.send c "hello";
      reply := Sock.recv c ~max:4096;
      Sock.close c);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check string) "echo round trip" "echo:hello" !reply

let test_sock_refused () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let refused = ref false in
  Engine.spawn eng ~name:"client" (fun () ->
      match Sock.connect w ~from:"cli" ~node:"nowhere" ~port:80 with
      | (_ : Sock.conn) -> ()
      | exception Sock.Connection_refused _ -> refused := true);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "no listener refuses" true !refused

let test_sock_eof_on_close () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let eof = ref "sentinel" in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      let c = Sock.accept l in
      Sock.close c);
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 1);
      let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      eof := Sock.recv c ~max:10);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check string) "recv returns empty on EOF" "" !eof

let test_sock_recv_drains_before_eof () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let collected = Buffer.create 16 in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      let c = Sock.accept l in
      Sock.send c "abcdef";
      Sock.close c);
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 1);
      let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      Engine.sleep eng (Time.ms 5);
      (* Data then FIN are both in: small reads drain before EOF. *)
      let rec go () =
        let chunk = Sock.recv c ~max:2 in
        if chunk <> "" then begin
          Buffer.add_string collected chunk;
          go ()
        end
      in
      go ());
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check string) "drained in order" "abcdef" (Buffer.contents collected)

let test_sock_recv_timeout () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let got = ref "x" and t_after = ref Time.zero in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      let (_ : Sock.conn) = Sock.accept l in
      (* Never send. *)
      ());
  Engine.spawn eng ~name:"client" (fun () ->
      let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      let t0 = Engine.now eng in
      got := Sock.recv ~timeout:(Time.ms 10) c ~max:10;
      t_after := Engine.now eng - t0);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check string) "timeout yields empty" "" !got;
  Alcotest.(check bool) "waited about the timeout" true (!t_after >= Time.ms 10)

let test_sock_crash_gives_peer_eof () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let g = Engine.new_group eng in
  Engine.on_kill eng g (fun () ->
      Fabric.node_down fabric "srv";
      Sock.node_crashed w "srv");
  let eof_seen = ref false in
  Engine.spawn eng ~group:g ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      let (_ : Sock.conn) = Sock.accept l in
      Engine.sleep eng (Time.sec 10));
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 1);
      let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      let got = Sock.recv c ~max:10 in
      eof_seen := got = "");
  Engine.at eng (Time.ms 50) (fun () -> Engine.kill_group eng g);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "peer observes crash as EOF" true !eof_seen

let test_sock_many_clients () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let served = ref 0 in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      for _ = 1 to 20 do
        let c = Sock.accept l in
        Engine.spawn eng ~name:"handler" (fun () ->
            let req = Sock.recv c ~max:100 in
            Sock.send c req;
            Sock.close c)
      done);
  for i = 1 to 20 do
    Engine.spawn eng ~name:(Printf.sprintf "cli%d" i) (fun () ->
        Engine.sleep eng (Time.us (100 * i));
        let c = Sock.connect w ~from:(Printf.sprintf "c%d" i) ~node:"srv" ~port:80 in
        let msg = string_of_int i in
        Sock.send c msg;
        let r = Sock.recv c ~max:100 in
        if r = msg then incr served;
        Sock.close c)
  done;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check int) "all clients served correctly" 20 !served

let test_sock_listener_port_conflict () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let raised = ref false in
  Engine.spawn eng ~name:"t" (fun () ->
      let (_ : Sock.listener) = Sock.listen w ~node:"srv" ~port:80 in
      match Sock.listen w ~node:"srv" ~port:80 with
      | (_ : Sock.listener) -> ()
      | exception Invalid_argument _ -> raised := true);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "double bind rejected" true !raised

let test_sock_wait_acceptable () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let first = ref true and second = ref false in
  Engine.spawn eng ~name:"server" (fun () ->
      let l = Sock.listen w ~node:"srv" ~port:80 in
      (* No client yet: times out. *)
      first := Sock.wait_acceptable ~timeout:(Time.ms 1) l;
      (* Client arrives afterwards. *)
      second := Sock.wait_acceptable ~timeout:(Time.sec 1) l);
  Engine.spawn eng ~name:"client" (fun () ->
      Engine.sleep eng (Time.ms 10);
      let (_ : Sock.conn) = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
      ());
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "poll times out when idle" false !first;
  Alcotest.(check bool) "poll sees pending connection" true !second

(* Closing frees a connection: a world that served a thousand short
   connections, closed from either end, holds no more than one that
   served ten.  Odd cycles close server-first (the client reads EOF,
   then closes), even cycles client-first. *)
let test_sock_table_bounded () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let l = Sock.listen w ~node:"srv" ~port:80 in
  let cycle i =
    let server_first = i mod 2 = 1 in
    Engine.spawn eng ~name:"server" (fun () ->
        let c = Sock.accept l in
        Sock.send c (Sock.recv c ~max:100);
        if not server_first then ignore (Sock.recv c ~max:100);
        Sock.close c);
    Engine.spawn eng ~name:"client" (fun () ->
        let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
        Sock.send c "ping";
        ignore (Sock.recv c ~max:100);
        if server_first then ignore (Sock.recv c ~max:100);
        Sock.close c);
    Engine.run eng
  in
  let words () = Obj.reachable_words (Obj.repr w) in
  for i = 1 to 10 do cycle i done;
  let base = words () in
  for i = 11 to 1000 do cycle i done;
  check_no_failures eng;
  let grown = words () - base in
  if grown > 200 then
    Alcotest.failf "world grew by %d words over 990 closed connections" grown

(* A timeout that loses its race leaves the queue.  A thousand cycles of
   connect plus [recv ~timeout:5s], each answered within the cycle's
   10 ms, keep the engine's queue near empty and its reachable size flat
   from cycle 10 on: no dead timer stays queued holding the client's
   fiber for 1 s (connect) or 5 s (recv).  A cycle the timeout wins
   still returns [""] exactly 5 s after the recv began, and a connect
   refused by [Rst] leaves no timer either.  Two 1 ms ticks half a
   period apart, like a cluster's heartbeats, keep a live event at the
   head of the queue even while one of them runs, so dead timers cannot
   simply leave it from the top. *)
let test_sock_lost_race_timeouts () =
  let eng, fabric = setup () in
  let w = Sock.world fabric in
  let l = Sock.listen w ~node:"srv" ~port:80 in
  let rec tick () = Engine.after eng (Time.ms 1) tick in
  tick ();
  Engine.after eng (Time.us 500) tick;
  let step () = Engine.run ~until:(Engine.now eng + Time.ms 10) eng in
  let cycle ~reply =
    let got = ref None in
    Engine.spawn eng ~name:"server" (fun () ->
        let c = Sock.accept l in
        let req = Sock.recv c ~max:100 in
        if reply then Sock.send c req;
        ignore (Sock.recv c ~max:100);
        Sock.close c);
    Engine.spawn eng ~name:"client" (fun () ->
        let c = Sock.connect w ~from:"cli" ~node:"srv" ~port:80 in
        Sock.send c "ping";
        let t0 = Engine.now eng in
        let r = Sock.recv ~timeout:(Time.sec 5) c ~max:100 in
        got := Some (r, Engine.now eng - t0);
        Sock.close c);
    got
  in
  let engine_words () = Obj.reachable_words (Obj.repr eng) in
  let base = ref 0 in
  for i = 1 to 1000 do
    let got = cycle ~reply:true in
    step ();
    (match !got with
    | Some ("ping", _) -> ()
    | _ -> Alcotest.failf "cycle %d: no reply within its 10 ms" i);
    if Engine.pending_events eng > 4 then
      Alcotest.failf "cycle %d: %d events still queued" i (Engine.pending_events eng);
    if i = 10 then base := engine_words ()
  done;
  check_no_failures eng;
  let grown = engine_words () - !base in
  if grown > 200 then Alcotest.failf "engine grew by %d words over 990 answered cycles" grown;
  let got = cycle ~reply:false in
  Engine.run ~until:(Engine.now eng + Time.sec 6) eng;
  (match !got with
  | Some (r, waited) ->
    Alcotest.(check string) "timeout yields empty" "" r;
    Alcotest.(check int) "returns at exactly t0 + 5 s" (Time.sec 5) waited
  | None -> Alcotest.fail "timed recv never returned");
  let refused_after = ref None in
  Engine.spawn eng ~name:"refused" (fun () ->
      let t0 = Engine.now eng in
      match Sock.connect w ~from:"cli" ~node:"srv" ~port:81 with
      | (_ : Sock.conn) -> ()
      | exception Sock.Connection_refused _ -> refused_after := Some (Engine.now eng - t0));
  step ();
  check_no_failures eng;
  (match !refused_after with
  | Some d when d < Time.ms 10 -> ()
  | _ -> Alcotest.fail "no Rst refusal within 10 ms");
  Alcotest.(check int) "a refused connect leaves no timer, only the ticks" 2
    (Engine.pending_events eng)

(* Bytestream *)

(* Interleaved pushes and takes against a model of the queued chunks:
   every take returns the next [min max length] bytes, a take covering
   exactly the whole head chunk returns that very string, and a final
   take with [max] past the total drains the rest. *)
let prop_bytestream_roundtrip =
  QCheck.Test.make ~name:"bytestream concatenates pushes" ~count:300
    QCheck.(small_list (pair small_printable_string (int_range 0 24)))
    (fun ops ->
      let module B = Crane_socket.Bytestream in
      let b = B.create () in
      let queued = Queue.create () and offset = ref 0 in
      let pending () =
        let s = String.concat "" (List.of_seq (Queue.to_seq queued)) in
        String.sub s !offset (String.length s - !offset)
      in
      let take max =
        let want = pending () in
        let n = min (Int.max max 0) (String.length want) in
        let exact =
          match Queue.peek_opt queued with
          | Some head when !offset = 0 && n > 0 && String.length head = n -> Some head
          | _ -> None
        in
        let got = B.take b ~max in
        let rec advance k =
          if k > 0 then begin
            let head = Queue.peek queued in
            let avail = String.length head - !offset in
            if avail <= k then (ignore (Queue.pop queued); offset := 0; advance (k - avail))
            else offset := !offset + k
          end
        in
        advance n;
        got = String.sub want 0 n
        && B.length b = String.length want - n
        && match exact with Some head -> got == head | None -> true
      in
      List.for_all
        (fun (chunk, max) ->
          B.push b chunk;
          if chunk <> "" then Queue.add chunk queued;
          take max)
        ops
      && take (B.length b + 5)
      && B.is_empty b)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "net.fabric",
      [
        Alcotest.test_case "delivery + fifo" `Quick test_fabric_delivery;
        Alcotest.test_case "latency" `Quick test_fabric_latency_positive;
        Alcotest.test_case "partition" `Quick test_fabric_partition;
        Alcotest.test_case "one-way partition" `Quick test_fabric_partition_oneway;
        Alcotest.test_case "node down" `Quick test_fabric_node_down;
        Alcotest.test_case "loss" `Quick test_fabric_loss;
        Alcotest.test_case "node states and drop reasons" `Quick test_fabric_node_states;
        Alcotest.test_case "links independent" `Quick test_fabric_links_independent;
        qcheck prop_fabric_fifo_per_link;
      ] );
    ( "socket",
      [
        Alcotest.test_case "echo" `Quick test_sock_echo;
        Alcotest.test_case "refused" `Quick test_sock_refused;
        Alcotest.test_case "eof on close" `Quick test_sock_eof_on_close;
        Alcotest.test_case "drain before eof" `Quick test_sock_recv_drains_before_eof;
        Alcotest.test_case "recv timeout" `Quick test_sock_recv_timeout;
        Alcotest.test_case "crash -> peer eof" `Quick test_sock_crash_gives_peer_eof;
        Alcotest.test_case "many clients" `Quick test_sock_many_clients;
        Alcotest.test_case "port conflict" `Quick test_sock_listener_port_conflict;
        Alcotest.test_case "wait_acceptable" `Quick test_sock_wait_acceptable;
        Alcotest.test_case "closed connections are freed" `Quick test_sock_table_bounded;
        Alcotest.test_case "lost-race timeouts leave the queue" `Quick test_sock_lost_race_timeouts;
        qcheck prop_bytestream_roundtrip;
      ] );
  ]
