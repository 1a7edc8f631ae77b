(* Tests for the in-memory filesystem, snapshot diff/patch, LXC-like
   containers, the WAL, and the checkpoint manager. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Memfs = Crane_fs.Memfs
module Fsdiff = Crane_fs.Fsdiff
module Container = Crane_fs.Container
module Wal = Crane_storage.Wal
module Criu = Crane_checkpoint.Criu
module Manager = Crane_checkpoint.Manager

let check_no_failures eng =
  match Engine.failures eng with
  | [] -> ()
  | (name, e) :: _ ->
    Alcotest.failf "thread %s failed: %s" name (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Memfs *)

let test_memfs_basics () =
  let fs = Memfs.create () in
  Memfs.write fs ~path:"www/a.php" "<?php 1 ?>";
  Memfs.append fs ~path:"log" "x";
  Memfs.append fs ~path:"log" "y";
  Alcotest.(check (option string)) "read" (Some "<?php 1 ?>")
    (Memfs.read fs ~path:"www/a.php");
  Alcotest.(check (option string)) "append" (Some "xy") (Memfs.read fs ~path:"log");
  Alcotest.(check (list string)) "list by prefix" [ "www/a.php" ]
    (Memfs.list fs ~prefix:"www/");
  Memfs.delete fs ~path:"log";
  Alcotest.(check bool) "deleted" false (Memfs.exists fs ~path:"log");
  Alcotest.(check int) "count" 1 (Memfs.file_count fs)

let test_memfs_snapshot_isolation () =
  let fs = Memfs.create () in
  Memfs.write fs ~path:"f" "v1";
  let snap = Memfs.snapshot fs in
  Memfs.write fs ~path:"f" "v2";
  Memfs.write fs ~path:"g" "new";
  Memfs.restore fs snap;
  Alcotest.(check (option string)) "rolled back" (Some "v1") (Memfs.read fs ~path:"f");
  Alcotest.(check bool) "new file gone" false (Memfs.exists fs ~path:"g")

(* Diff/patch roundtrip on arbitrary file-system mutations. *)
let fs_ops =
  QCheck.(
    small_list
      (triple (int_range 0 5) (int_range 0 3) small_printable_string))

let apply_ops fs ops =
  List.iter
    (fun (file, op, content) ->
      let path = Printf.sprintf "dir/f%d" file in
      match op with
      | 0 | 1 -> Memfs.write fs ~path content
      | 2 -> Memfs.append fs ~path (content ^ "\n")
      | _ -> Memfs.delete fs ~path)
    ops

let prop_diff_patch_roundtrip =
  QCheck.Test.make ~name:"diff/patch roundtrip reconstructs target" ~count:300
    QCheck.(pair fs_ops fs_ops)
    (fun (ops1, ops2) ->
      let fs = Memfs.create () in
      apply_ops fs ops1;
      let base = Memfs.snapshot fs in
      apply_ops fs ops2;
      let target = Memfs.snapshot fs in
      let patch = Fsdiff.diff ~base ~target in
      Memfs.snapshot_equal (Fsdiff.apply ~base patch) target)

let test_diff_incremental_is_small () =
  (* A tiny append to a large file must produce a small patch. *)
  let fs = Memfs.create () in
  let big = String.concat "\n" (List.init 10_000 (fun i -> Printf.sprintf "line%d" i)) in
  Memfs.write fs ~path:"db/huge" big;
  let base = Memfs.snapshot fs in
  Memfs.append fs ~path:"db/huge" "\nfinal line";
  let patch = Fsdiff.diff ~base ~target:(Memfs.snapshot fs) in
  Alcotest.(check bool) "patch much smaller than file" true
    (Fsdiff.patch_bytes patch < 200);
  Alcotest.(check int) "one file touched" 1 (Fsdiff.files_touched patch)

let test_diff_empty () =
  let fs = Memfs.create () in
  Memfs.write fs ~path:"a" "x";
  let snap = Memfs.snapshot fs in
  Alcotest.(check bool) "no change, empty patch" true
    (Fsdiff.is_empty (Fsdiff.diff ~base:snap ~target:snap))

(* ------------------------------------------------------------------ *)
(* Container + WAL *)

let test_container_stop_start_cost () =
  let eng = Engine.create () in
  let fs = Memfs.create () in
  let c = Container.create eng ~name:"lxc" fs in
  let elapsed = ref Time.zero in
  Engine.spawn eng ~name:"op" (fun () ->
      let t0 = Engine.now eng in
      Container.stop c;
      Container.start c;
      elapsed := Engine.now eng - t0);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "stop+start in the paper's 2-5s" true
    (!elapsed >= Time.sec 2 && !elapsed <= Time.sec 5)

let test_container_confined_blocks_criu () =
  let eng = Engine.create () in
  let fs = Memfs.create () in
  let c = Container.create eng ~name:"lxc" ~unconfined:false fs in
  let raised = ref false in
  Engine.spawn eng ~name:"op" (fun () ->
      match Criu.dump eng c ~state:"s" ~mem_bytes:100 with
      | (_ : Criu.image) -> ()
      | exception Container.Confined -> raised := true);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "confined container rejects CRIU" true !raised

(* A writer that waits for each record to be durable before submitting
   the next: one fsync per record, landing in write order. *)
let test_wal_order_and_recovery () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  let rec write i =
    if i <= 5 then Wal.append_async wal [ string_of_int i ] (fun () -> write (i + 1))
  in
  write 1;
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check (list string)) "stable in order" [ "1"; "2"; "3"; "4"; "5" ]
    (Wal.records wal);
  Alcotest.(check int) "writes counted" 5 (Wal.writes wal)

let test_wal_async_ordering () =
  let eng = Engine.create () in
  let wal = Wal.create eng ~name:"w" in
  let done_order = ref [] in
  for i = 1 to 3 do
    Wal.append_async wal [ string_of_int i ] (fun () -> done_order := i :: !done_order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "continuations fire in submit order" [ 1; 2; 3 ]
    (List.rev !done_order);
  Alcotest.(check (list string)) "records in submit order" [ "1"; "2"; "3" ]
    (Wal.records wal)

(* ------------------------------------------------------------------ *)
(* Checkpoint manager *)

let make_manager eng =
  let fs = Memfs.create () in
  Memfs.write fs ~path:"install/conf" "v=1";
  let container = Container.create eng ~name:"lxc" fs in
  let state = ref "state0" in
  let conns = ref 0 in
  let index = ref 0 in
  let mgr =
    Manager.create eng ~container
      ~state_of:(fun () -> !state)
      ~mem_bytes:(fun () -> 4_000_000)
      ~alive_conns:(fun () -> !conns)
      ~global_index:(fun () -> !index)
  in
  (mgr, container, state, conns, index)

let test_checkpoint_roundtrip () =
  let eng = Engine.create () in
  let mgr, container, state, _, index = make_manager eng in
  Engine.spawn eng ~name:"ckpt" (fun () ->
      state := "state-at-42";
      index := 42;
      Memfs.append (Container.fs container) ~path:"install/conf" "\nv=2";
      let ckpt =
        match Manager.checkpoint_now mgr with
        | Some c -> c
        | None -> Alcotest.fail "checkpoint skipped unexpectedly"
      in
      Alcotest.(check int) "index captured" 42 ckpt.Manager.global_index;
      (* Mutate, then restore. *)
      state := "later";
      Memfs.write (Container.fs container) ~path:"install/conf" "clobbered";
      let recovered, (_ : Manager.restore_timings) = Manager.restore mgr ckpt in
      Alcotest.(check string) "process state back" "state-at-42" recovered;
      Alcotest.(check (option string)) "fs patched back" (Some "v=1\nv=2")
        (Memfs.read (Container.fs container) ~path:"install/conf"));
  Engine.run eng;
  check_no_failures eng

let test_checkpoint_backoff_on_alive_conns () =
  let eng = Engine.create () in
  let mgr, _, _, conns, _ = make_manager eng in
  conns := 3;
  Engine.spawn eng ~name:"ckpt" (fun () -> ignore (Manager.checkpoint_now mgr));
  (* Connections drain after 5 s; the checkpoint must wait for that. *)
  Engine.at eng (Time.sec 5) (fun () -> conns := 0);
  Engine.run eng;
  check_no_failures eng;
  Alcotest.(check bool) "backed off at least twice" true (Manager.backoffs mgr >= 2);
  Alcotest.(check int) "eventually checkpointed" 1 (Manager.checkpoints_taken mgr)

let test_checkpoint_timings_magnitude () =
  let eng = Engine.create () in
  let mgr, _, _, _, _ = make_manager eng in
  Engine.spawn eng ~name:"ckpt" (fun () ->
      let ckpt =
        match Manager.checkpoint_now mgr with
        | Some c -> c
        | None -> Alcotest.fail "checkpoint skipped unexpectedly"
      in
      let { Manager.c_process; c_fs } = ckpt.Manager.timings in
      (* 4 MB image: tens of ms; container bounce dominates C fs. *)
      Alcotest.(check bool) "C_p tens of ms" true
        (c_process >= Time.ms 10 && c_process <= Time.ms 100);
      Alcotest.(check bool) "C_fs seconds-scale" true
        (c_fs >= Time.sec 1 && c_fs <= Time.sec 10));
  Engine.run eng;
  check_no_failures eng

let test_periodic_checkpoints () =
  let eng = Engine.create () in
  let mgr, _, _, _, _ = make_manager eng in
  let group = Engine.new_group eng in
  Manager.start_periodic mgr ~period:(Time.sec 10) ~group ();
  Engine.run ~until:(Time.sec 65) eng;
  check_no_failures eng;
  Alcotest.(check bool) "several periodic checkpoints" true
    (Manager.checkpoints_taken mgr >= 4)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "fs",
      [
        Alcotest.test_case "memfs basics" `Quick test_memfs_basics;
        Alcotest.test_case "snapshot isolation" `Quick test_memfs_snapshot_isolation;
        qcheck prop_diff_patch_roundtrip;
        Alcotest.test_case "incremental diff small" `Quick test_diff_incremental_is_small;
        Alcotest.test_case "empty diff" `Quick test_diff_empty;
        Alcotest.test_case "container bounce cost" `Quick test_container_stop_start_cost;
        Alcotest.test_case "confined blocks CRIU" `Quick test_container_confined_blocks_criu;
      ] );
    ( "storage",
      [
        Alcotest.test_case "wal order" `Quick test_wal_order_and_recovery;
        Alcotest.test_case "wal async order" `Quick test_wal_async_ordering;
      ] );
    ( "checkpoint",
      [
        Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "alive-connection backoff" `Quick
          test_checkpoint_backoff_on_alive_conns;
        Alcotest.test_case "timing magnitudes" `Quick test_checkpoint_timings_magnitude;
        Alcotest.test_case "periodic" `Quick test_periodic_checkpoints;
      ] );
  ]
