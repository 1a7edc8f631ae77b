(* Transparency: replicate *your* server unmodified.

   This bank server was written with zero knowledge of CRANE — it is an
   ordinary multithreaded socket program with in-memory account state.
   The example runs it twice:

   1. un-replicated, with two racing transfer streams, under several
      seeds: final balances depend on the schedule (lost updates under a
      deliberate check-then-act race between account lock acquisitions);
   2. inside a CRANE cluster: the same binary, same racing clients, but
      every replica ends with identical balances, and the state survives
      a primary failure.

   Run with: dune exec examples/custom_server.exe *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Sock = Crane_socket.Sock
module Api = Crane_core.Api
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone

(* Protocol: "TRANSFER src dst amount\n" | "BALANCE acct\n". *)
let bank : Api.server =
  {
    Api.name = "bank";
    install = (fun _ -> ());
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let accounts = Hashtbl.create 8 in
        List.iter (fun a -> Hashtbl.replace accounts a 1000) [ "alice"; "bob"; "carol" ];
        let mu = R.mutex () in
        let transfer src dst amount =
          (* Check... *)
          R.lock mu;
          let ok =
            match Hashtbl.find_opt accounts src with
            | Some b -> b >= amount
            | None -> false
          in
          R.unlock mu;
          (* ...then act: a textbook TOCTOU race between these two
             critical sections under a preemptive scheduler. *)
          if ok then begin
            R.work (Time.us 200) (* fee computation *);
            R.lock mu;
            Hashtbl.replace accounts src (Hashtbl.find accounts src - amount);
            Hashtbl.replace accounts dst
              (Option.value (Hashtbl.find_opt accounts dst) ~default:0 + amount);
            R.unlock mu;
            "OK\n"
          end
          else "INSUFFICIENT\n"
        in
        let serve conn =
          let buf = Buffer.create 64 in
          let rec loop () =
            match Crane_apps.Str_util.find_sub (Buffer.contents buf) "\n" with
            | Some i ->
              let line = String.sub (Buffer.contents buf) 0 i in
              let rest =
                String.sub (Buffer.contents buf) (i + 1) (Buffer.length buf - i - 1)
              in
              Buffer.clear buf;
              Buffer.add_string buf rest;
              (match String.split_on_char ' ' (String.trim line) with
              | [ "TRANSFER"; src; dst; amt ] ->
                R.send conn (transfer src dst (int_of_string amt))
              | [ "BALANCE"; acct ] ->
                R.send conn
                  (Printf.sprintf "%d\n"
                     (Option.value (Hashtbl.find_opt accounts acct) ~default:0))
              | _ -> R.send conn "ERR\n");
              loop ()
            | None ->
              let chunk = R.recv conn ~max:1024 in
              if chunk = "" then R.close conn
              else begin
                Buffer.add_string buf chunk;
                loop ()
              end
          in
          loop ()
        in
        R.spawn ~name:"bank-listener" (fun () ->
            let l = R.listen ~port:9000 in
            while true do
              R.poll l;
              let conn = R.accept l in
              R.spawn ~name:"bank-teller" (fun () -> serve conn)
            done);
        let state_of () =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) accounts []
          |> List.sort compare
          |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          |> String.concat ","
        in
        Api.handle ~name:"bank"
          ~state_of
          ~load_state:(fun s ->
            Hashtbl.reset accounts;
            List.iter
              (fun kv ->
                match String.split_on_char '=' kv with
                | [ k; v ] -> Hashtbl.replace accounts k (int_of_string v)
                | _ -> ())
              (String.split_on_char ',' s))
          ~mem_bytes:(fun () -> 500_000)
          ~stop:ignore
          ());
  }

let drive_clients ?(seed = 0) eng world ~nodes () =
  let rng = Crane_sim.Rng.create (seed + 77) in
  (* Two clients race alice's balance down; overdrafts are possible only
     if the schedule interleaves the check and the act. *)
  let run_client i =
    let delay = Time.us (Crane_sim.Rng.int rng 2000) in
    Engine.spawn eng ~name:(Printf.sprintf "teller%d" i) (fun () ->
        Engine.sleep eng (Time.ms 1 + delay);
        let rec connect tries =
          let node = List.nth nodes (tries mod List.length nodes) in
          match Sock.connect world ~from:(Printf.sprintf "atm%d" i) ~node ~port:9000 with
          | conn -> conn
          | exception Sock.Connection_refused _ ->
            Engine.sleep eng (Time.ms 100);
            connect (tries + 1)
        in
        let conn = connect 0 in
        for _ = 1 to 6 do
          Engine.sleep eng (Time.us (Crane_sim.Rng.int rng 500));
          Sock.send conn "TRANSFER alice bob 300\n";
          ignore (Sock.recv ~timeout:(Time.sec 5) conn ~max:64)
        done;
        Sock.close conn)
  in
  run_client 1;
  run_client 2

let balances_of_state s = s

let () =
  print_endline "-- un-replicated bank, different machines/schedules --";
  let finals =
    List.map
      (fun seed ->
        let sa = Standalone.boot ~seed ~mode:Standalone.Native ~server:bank () in
        let eng = Standalone.engine sa in
        drive_clients ~seed eng (Standalone.world sa) ~nodes:[ "server" ] ();
        Engine.run ~until:(Time.sec 5) eng;
        Standalone.check_failures sa;
        let state = (Standalone.output sa, sa) in
        ignore state;
        let s = sa.Standalone.handle.Api.state_of () in
        Printf.printf "  seed %3d -> %s\n" seed (balances_of_state s);
        s)
      [ 3; 57; 1999; 4242 ]
  in
  (if List.length (List.sort_uniq compare finals) > 1 then
     print_endline "  (schedules diverged: same program, different final states)");
  print_endline "\n-- the same bank under CRANE --";
  let cluster =
    Cluster.create ~cfg:{ Instance.default_config with service_port = 9000 } ~server:bank ()
  in
  Cluster.start cluster;
  let eng = Cluster.engine cluster in
  drive_clients eng (Cluster.world cluster) ~nodes:[ "replica1" ] ();
  Cluster.run ~until:(Time.sec 5) cluster;
  Cluster.check_failures cluster;
  List.iter
    (fun (node, inst) ->
      Printf.printf "  %s -> %s\n" node
        (balances_of_state (inst.Instance.handle.Api.state_of ())))
    (Cluster.instances cluster);
  match List.map (fun (_, i) -> i.Instance.handle.Api.state_of ()) (Cluster.instances cluster) with
  | s :: rest when List.for_all (( = ) s) rest ->
    print_endline "  replicas agree bit-for-bit."
  | _ ->
    print_endline "  ERROR: replicas diverged";
    exit 1
