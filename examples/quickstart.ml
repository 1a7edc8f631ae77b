(* Quickstart: replicate a server with CRANE in a few lines.

   The server below is an ordinary multithreaded program written against
   the runtime API — it knows nothing about replication.  Handing it to
   [Cluster.create] runs it inside three CRANE instances: every client
   socket call goes through PAXOS, thread scheduling is made deterministic
   by the DMT scheduler, and request-timing nondeterminism is closed by
   time bubbling.

   Run with: dune exec examples/quickstart.exe *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Api = Crane_core.Api
module Cluster = Crane_core.Cluster
module Output_log = Crane_core.Output_log
module Sock = Crane_socket.Sock

(* An ordinary server: a listener thread and per-connection handlers
   sharing a counter behind a mutex. *)
let greeter : Api.server =
  {
    Api.name = "greeter";
    install = (fun _fs -> ());
    boot =
      (fun api ->
        let module R = (val api : Api.API) in
        let hits = ref 0 in
        let mu = R.mutex () in
        R.spawn ~name:"listener" (fun () ->
            let l = R.listen ~port:7000 in
            while true do
              R.poll l;
              let conn = R.accept l in
              R.spawn ~name:"handler" (fun () ->
                  let name = R.recv conn ~max:256 in
                  if name <> "" then begin
                    R.lock mu;
                    incr hits;
                    let n = !hits in
                    R.unlock mu;
                    R.send conn (Printf.sprintf "hello %s, you are visitor #%d" name n)
                  end;
                  R.close conn)
            done);
        Api.handle ~name:"greeter"
          ~state_of:(fun () -> string_of_int !hits)
          ~load_state:(fun s -> hits := int_of_string s)
          ~mem_bytes:(fun () -> 1_000_000)
          ~stop:ignore
          ());
  }

let () =
  let cfg = { Crane_core.Instance.default_config with service_port = 7000 } in
  let cluster = Cluster.create ~cfg ~server:greeter () in
  Cluster.start cluster;
  let eng = Cluster.engine cluster in
  (* Five clients greet the primary. *)
  let replies = ref [] in
  for i = 1 to 5 do
    Engine.spawn eng ~name:(Printf.sprintf "client%d" i) (fun () ->
        Engine.sleep eng (Time.ms (5 * i));
        let conn =
          Sock.connect (Cluster.world cluster) ~from:(Printf.sprintf "laptop%d" i)
            ~node:"replica1" ~port:7000
        in
        Sock.send conn (Printf.sprintf "client-%d" i);
        let reply = Sock.recv conn ~max:256 in
        replies := reply :: !replies;
        Sock.close conn)
  done;
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  print_endline "Client replies (from the primary):";
  List.iter (fun r -> Printf.printf "  %s\n" r) (List.rev !replies);
  print_endline "\nPer-replica output logs (must be identical):";
  List.iter
    (fun (node, log) ->
      Printf.printf "  %s: %d sends, digest %s\n" node (Output_log.length log)
        (Digest.to_hex (Digest.string (Output_log.render log))))
    (Cluster.outputs cluster);
  match Cluster.outputs cluster with
  | (_, first) :: rest ->
    if List.for_all (fun (_, o) -> Output_log.equal first o) rest then
      print_endline "\nAll three replicas executed identically. That's CRANE."
    else begin
      print_endline "\nERROR: replicas diverged!";
      exit 1
    end
  | [] -> ()
