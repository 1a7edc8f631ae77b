(* The paper's §2.2 / §7.2 micro-benchmark: two concurrent curl clients
   send a PUT of a PHP page and a GET of the same URL.

   Un-replicated, the GET's outcome (200 vs 404) depends on request
   timing and the OS schedule: across runs the counts differ per machine
   (the paper saw 404 on 6, 8 and 11 of 100 runs on its three machines).

   Under CRANE every run still picks one of the two outcomes — whichever
   order PAXOS decided — but all three replicas report the *same* outcome
   in every run.

   Run with: dune exec examples/put_get_race.exe *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients

let apache =
  Crane_apps.Apache.server
    ~cfg:
      {
        Crane_apps.Apache.default_config with
        nworkers = 4;
        php_segments = 4;
        segment_cost = Time.us 1750;
      }
    ()

let race_unreplicated seed =
  let sa = Standalone.boot ~seed ~mode:Standalone.Native ~server:apache () in
  let eng = Standalone.engine sa in
  let target = Target.standalone sa ~port:80 in
  let status = ref None in
  Engine.spawn eng ~name:"curl-put" (fun () ->
      ignore (Clients.curl_put target ~from:"curl1" ~path:"/a.php" ~body:"<?php a ?>"));
  Engine.spawn eng ~name:"curl-get" (fun () ->
      match Clients.curl_get target ~from:"curl2" ~path:"/a.php" with
      | Some resp -> status := Crane_apps.Httpkit.status_of_response resp
      | None -> ());
  Engine.run ~until:(Time.sec 2) eng;
  Standalone.check_failures sa;
  !status

let fast_paxos =
  {
    Crane_paxos.Paxos.default_config with
    Crane_paxos.Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    lease_duration = Time.ms 150;
  }

let race_crane seed =
  let cfg = { Instance.default_config with paxos = fast_paxos; cores = 8 } in
  let cluster = Cluster.create ~seed ~cfg ~server:apache () in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port:80 in
  let status = ref None in
  Engine.spawn eng ~name:"curl-put" (fun () ->
      Engine.sleep eng (Time.ms 10);
      ignore (Clients.curl_put target ~from:"curl1" ~path:"/a.php" ~body:"<?php a ?>"));
  Engine.spawn eng ~name:"curl-get" (fun () ->
      Engine.sleep eng (Time.ms 10);
      match Clients.curl_get target ~from:"curl2" ~path:"/a.php" with
      | Some resp -> status := Crane_apps.Httpkit.status_of_response resp
      | None -> ());
  Cluster.run ~until:(Time.sec 2) cluster;
  Cluster.check_failures cluster;
  let consistent =
    match Cluster.outputs cluster with
    | (_, o1) :: rest -> List.for_all (fun (_, o) -> Output_log.equal o1 o) rest
    | [] -> false
  in
  (!status, consistent)

let () =
  let runs = 100 in
  Printf.printf "PUT/GET race, %d runs each.\n\n" runs;
  let count_404 outcomes =
    List.length (List.filter (fun s -> s = Some 404) outcomes)
  in
  (* Three "machines" = three seed families, like the paper's three
     replicas running the un-replicated server independently. *)
  List.iteri
    (fun machine base ->
      let outcomes = List.init runs (fun i -> race_unreplicated (base + (i * 13))) in
      Printf.printf "un-replicated machine %d: GET returned 404 in %d/%d runs\n"
        (machine + 1) (count_404 outcomes) runs)
    [ 11; 1700; 92_000 ];
  print_newline ();
  let crane = List.init runs (fun i -> race_crane (i * 29)) in
  let inconsistent = List.filter (fun (_, c) -> not c) crane in
  Printf.printf "CRANE: GET returned 404 in %d/%d runs\n"
    (count_404 (List.map fst crane))
    runs;
  Printf.printf "CRANE: replicas disagreed in %d/%d runs (must be 0)\n"
    (List.length inconsistent) runs;
  if inconsistent <> [] then exit 1
