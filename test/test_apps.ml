(* Integration tests: the five server programs under the un-replicated
   runtime and under a full CRANE cluster, driven by their benchmark
   clients over the simulated network. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Api = Crane_core.Api
module Instance = Crane_core.Instance
module Cluster = Crane_core.Cluster
module Standalone = Crane_core.Standalone
module Output_log = Crane_core.Output_log
module Target = Crane_workload.Target
module Clients = Crane_workload.Clients
module Loadgen = Crane_workload.Loadgen
module Stats = Crane_report.Stats

let fast_paxos =
  {
    Crane_paxos.Paxos.default_config with
    Crane_paxos.Paxos.heartbeat_period = Time.ms 100;
    election_timeout = Time.ms 300;
    election_jitter = Time.ms 50;
    round_retry = Time.ms 100;
    lease_duration = Time.ms 150;
  }

let cluster_cfg ?(port = 80) mode =
  { Instance.default_config with mode; paxos = fast_paxos; cores = 8; service_port = port }

(* Small Apache for tests: 4 workers, 7 ms pages of coarse compute
   segments (the grain that makes the default DMT schedule serialize). *)
let small_apache ?(hints = false) () =
  Crane_apps.Apache.server
    ~cfg:
      {
        Crane_apps.Apache.default_config with
        nworkers = 4;
        php_segments = 4;
        segment_cost = Time.us 1750;
        hints;
        hint_timeout_ticks = 100;
      }
    ()

let run_standalone_load ~mode ~server ~port ~clients ~requests ~request =
  let sa = Standalone.boot ~mode ~server () in
  let target = Target.standalone sa ~port in
  let handle = Loadgen.run ~clients ~requests ~request target in
  Loadgen.drive ~timeout:(Time.sec 120) target handle;
  Standalone.check_failures sa;
  handle.Loadgen.collect ()

let run_cluster_load ?(mode = Instance.Full) ~server ~port ~clients ~requests ~request ()
    =
  let cluster = Cluster.create ~cfg:(cluster_cfg ~port mode) ~server () in
  Cluster.start ~checkpoints:false cluster;
  let target = Target.cluster cluster ~port in
  let handle = Loadgen.run ~clients ~requests ~request target in
  Loadgen.drive ~timeout:(Time.sec 200) target handle;
  Cluster.check_failures cluster;
  (handle.Loadgen.collect (), cluster)

let check_http_200 resp =
  Alcotest.(check (option int)) "HTTP 200" (Some 200)
    (Crane_apps.Httpkit.status_of_response resp)

(* ------------------------------------------------------------------ *)

let test_apache_native_latency () =
  let r =
    run_standalone_load ~mode:Standalone.Native ~server:(small_apache ()) ~port:80
      ~clients:4 ~requests:16 ~request:Clients.apachebench
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "all served" 16 (List.length r.Loadgen.latencies);
  let med = Stats.median r.Loadgen.latencies in
  (* Page cost is 7 ms; response time should be in that ballpark. *)
  Alcotest.(check bool)
    (Printf.sprintf "median %s ~ page cost" (Time.to_string med))
    true
    (med >= Time.ms 7 && med < Time.ms 40)

let test_apache_crane_cluster () =
  let r, cluster =
    run_cluster_load ~server:(small_apache ()) ~port:80 ~clients:4 ~requests:12
      ~request:Clients.apachebench ()
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "all served" 12 (List.length r.Loadgen.latencies);
  (* Replica output logs identical (plan I of §7.2). *)
  (match Cluster.outputs cluster with
  | (_, o1) :: rest ->
    Alcotest.(check bool) "outputs recorded" true (Output_log.length o1 >= 12);
    List.iter
      (fun (n, o) ->
        Alcotest.(check bool) (n ^ " output log matches") true (Output_log.equal o1 o))
      rest
  | [] -> Alcotest.fail "no outputs");
  (* Bubbles were used but are a minority during the burst (Table 1). *)
  List.iter
    (fun (_, inst) ->
      let calls, bubbles = Instance.seq_stats inst in
      Alcotest.(check bool) "client calls flowed" true (calls >= 36);
      Alcotest.(check bool) "bubbles present" true (bubbles > 0))
    (Cluster.instances cluster)

let test_apache_hints_speed_up_crane () =
  let median_with hints =
    let r, _ =
      run_cluster_load ~server:(small_apache ~hints ()) ~port:80 ~clients:4
        ~requests:12 ~request:Clients.apachebench ()
    in
    Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
    Stats.median r.Loadgen.latencies
  in
  let without = median_with false and with_ = median_with true in
  Alcotest.(check bool)
    (Printf.sprintf "hints help: %s (with) < %s (without)" (Time.to_string with_)
       (Time.to_string without))
    true (with_ < without)

let test_clamav_native () =
  let server = Crane_apps.Clamav.server () in
  let r =
    run_standalone_load ~mode:Standalone.Native ~server ~port:3310 ~clients:2
      ~requests:4 ~request:(Clients.clamdscan ~dirs:8)
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "all scans done" 4 (List.length r.Loadgen.latencies)

let test_clamav_crane_finds_and_quarantines () =
  let server = Crane_apps.Clamav.server () in
  let r, cluster =
    run_cluster_load ~server ~port:3310 ~clients:2 ~requests:4
      ~request:(Clients.clamdscan ~dirs:8) ()
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  (* The three infected files were quarantined on every replica. *)
  List.iter
    (fun (node, inst) ->
      let q = Crane_fs.Memfs.list inst.Instance.fsys ~prefix:"quarantine/" in
      Alcotest.(check int) (node ^ " quarantined all three") 3 (List.length q))
    (Cluster.instances cluster)

let test_mysql_crane () =
  let server = Crane_apps.Mysql.server () in
  let rng = Crane_sim.Rng.create 7 in
  let request target ~from = Clients.sysbench ~rng ~ntables:16 ~rows:2000 target ~from in
  let r, cluster =
    run_cluster_load ~server ~port:3306 ~clients:4 ~requests:20 ~request ()
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "all queries" 20 (List.length r.Loadgen.latencies);
  match Cluster.outputs cluster with
  | (_, o1) :: rest ->
    List.iter
      (fun (n, o) ->
        Alcotest.(check bool) (n ^ " outputs match") true (Output_log.equal o1 o))
      rest
  | [] -> Alcotest.fail "no outputs"

let test_mediatomb_native_transcode () =
  let server =
    Crane_apps.Mediatomb.server
      ~cfg:
        {
          Crane_apps.Mediatomb.default_config with
          frames = 20;
          frame_cost = Time.ms 20;
        }
      ()
  in
  let r =
    run_standalone_load ~mode:Standalone.Native ~server ~port:49152 ~clients:2
      ~requests:4 ~request:Clients.mediabench
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  let med = Stats.median r.Loadgen.latencies in
  (* 20 frames x 20 ms over 2 encoder threads: >= 200 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "transcode takes encode time (%s)" (Time.to_string med))
    true
    (med >= Time.ms 200)

let test_mongoose_parrot () =
  let server =
    Crane_apps.Mongoose.server
      ~cfg:
        {
          Crane_apps.Mongoose.default_config with
          nworkers = 3;
          php_segments = 5;
          segment_cost = Time.us 1000;
        }
      ()
  in
  let r =
    run_standalone_load ~mode:Standalone.Parrot ~server ~port:80 ~clients:3
      ~requests:9 ~request:Clients.apachebench
  in
  Alcotest.(check int) "no errors" 0 r.Loadgen.errors;
  Alcotest.(check int) "all served" 9 (List.length r.Loadgen.latencies)

(* The §2.2 / §7.2 micro-benchmark: concurrent PUT and GET on the same
   URL.  Un-replicated, the outcome differs across seeds; a CRANE cluster
   must report the same outcome on all three replicas in every run. *)
let put_get_unreplicated seed =
  let sa = Standalone.boot ~seed ~mode:Standalone.Native ~server:(small_apache ()) () in
  let eng = Standalone.engine sa in
  let target = Target.standalone sa ~port:80 in
  let get_status = ref None in
  Engine.spawn eng ~name:"curl-put" (fun () ->
      ignore (Clients.curl_put target ~from:"curl1" ~path:"/a.php" ~body:"<?php page ?>"));
  Engine.spawn eng ~name:"curl-get" (fun () ->
      match Clients.curl_get target ~from:"curl2" ~path:"/a.php" with
      | Some resp -> get_status := Crane_apps.Httpkit.status_of_response resp
      | None -> ());
  Engine.run ~until:(Time.sec 5) eng;
  Standalone.check_failures sa;
  !get_status

let test_put_get_race_unreplicated_varies () =
  let outcomes = List.init 12 (fun s -> put_get_unreplicated (s * 131)) in
  let distinct = List.sort_uniq compare outcomes in
  Alcotest.(check bool) "unreplicated outcome depends on timing" true
    (List.length distinct > 1)

let put_get_crane seed =
  let cluster =
    Cluster.create ~seed ~cfg:(cluster_cfg Instance.Full) ~server:(small_apache ()) ()
  in
  Cluster.start ~checkpoints:false cluster;
  let eng = Cluster.engine cluster in
  let target = Target.cluster cluster ~port:80 in
  let get_status = ref None in
  Engine.spawn eng ~name:"curl-put" (fun () ->
      Engine.sleep eng (Time.ms 10);
      ignore (Clients.curl_put target ~from:"curl1" ~path:"/a.php" ~body:"<?php page ?>"));
  Engine.spawn eng ~name:"curl-get" (fun () ->
      Engine.sleep eng (Time.ms 10);
      match Clients.curl_get target ~from:"curl2" ~path:"/a.php" with
      | Some resp -> get_status := Crane_apps.Httpkit.status_of_response resp
      | None -> ());
  Cluster.run ~until:(Time.sec 5) cluster;
  Cluster.check_failures cluster;
  (* All replicas logged the same outputs. *)
  let consistent =
    match Cluster.outputs cluster with
    | (_, o1) :: rest -> List.for_all (fun (_, o) -> Output_log.equal o1 o) rest
    | [] -> false
  in
  (!get_status, consistent)

let test_put_get_race_crane_consistent () =
  List.iter
    (fun seed ->
      let status, consistent = put_get_crane seed in
      Alcotest.(check bool) "replicas agree" true consistent;
      Alcotest.(check bool) "GET got an answer" true
        (status = Some 200 || status = Some 404))
    [ 1; 2; 3; 4 ]

let suite =
  [
    ( "apps",
      [
        Alcotest.test_case "apache native latency" `Quick test_apache_native_latency;
        Alcotest.test_case "apache crane cluster" `Quick test_apache_crane_cluster;
        Alcotest.test_case "apache hints speed up" `Quick test_apache_hints_speed_up_crane;
        Alcotest.test_case "clamav native" `Quick test_clamav_native;
        Alcotest.test_case "clamav crane quarantine" `Quick
          test_clamav_crane_finds_and_quarantines;
        Alcotest.test_case "mysql crane" `Quick test_mysql_crane;
        Alcotest.test_case "mediatomb native" `Quick test_mediatomb_native_transcode;
        Alcotest.test_case "mongoose parrot" `Quick test_mongoose_parrot;
        Alcotest.test_case "put/get unreplicated varies" `Quick
          test_put_get_race_unreplicated_varies;
        Alcotest.test_case "put/get crane consistent" `Quick
          test_put_get_race_crane_consistent;
      ] );
  ]
