(** MySQL model (paper §7): a SQL server with frequent fine-grained
    per-table mutexes and read-write locks — the reason it shows the
    largest DMT overhead in Figure 14: every one of those small lock
    operations must take the global round-robin turn.

    The SysBench workload issues random point SELECTs; the installation
    directory holds a large database (the SysBench-generated data that
    makes MySQL's filesystem checkpoint take close to a minute in
    Table 2). *)

module Time = Crane_sim.Time
module Api = Crane_core.Api
module Memfs = Crane_fs.Memfs

type config = {
  port : int;
  nworkers : int;
  ntables : int;
  rows_per_table : int;
  parse_cost : Time.t;
  lookup_cost : Time.t;
  bufpool_ops : int;  (** buffer-pool mutex acquisitions per query *)
  bufpool_op_cost : Time.t;
  mem_bytes : int;
  db_file_bytes : int;  (** on-disk size per table file (ballast for Table 2) *)
}

let default_config =
  {
    port = 3306;
    nworkers = 8;
    ntables = 16;
    rows_per_table = 2_000;
    parse_cost = Time.us 80;
    lookup_cost = Time.us 500;
    bufpool_ops = 2;
    bufpool_op_cost = Time.us 10;
    mem_bytes = 10_000_000;
    db_file_bytes = 12_500_000;
  }

let table_name k = Printf.sprintf "sbtest%d" k

let install (cfg : config) fs =
  Memfs.write fs ~path:"etc/my.cnf" "[mysqld]\ninnodb_buffer_pool_size=64M";
  (* SysBench's generated data files: what makes C_fs huge.  Every table
     shares one immutable string, so the sizes cost one copy of host
     memory. *)
  let data = String.make cfg.db_file_bytes 'D' in
  for k = 1 to cfg.ntables do
    Memfs.write fs ~path:(Printf.sprintf "data/%s.ibd" (table_name k)) data
  done

let server ?(cfg = default_config) () : Api.server =
  let boot api =
    let module R = (val api : Api.API) in
    let module B = App_base.Make (R) in
    let queries =
      B.Sharded_counter.create ~name:"mysqld.queries" ~shards:cfg.nworkers ()
    in
    let stopped = R.cell ~name:"mysqld.stopped" false in
    let worklist = B.Worklist.create ~name:"mysqld.worklist" () in
    let db = ref (Sqlkit.create_db ()) in
    for k = 1 to cfg.ntables do
      ignore (Sqlkit.create_table !db (table_name k) cfg.rows_per_table)
    done;
    (* Per-table metadata mutex + data rwlock, plus a global buffer-pool
       mutex: the fine-grained locking of §7.3. *)
    let table_mu = Hashtbl.create 16 and table_rw = Hashtbl.create 16 in
    for k = 1 to cfg.ntables do
      Hashtbl.replace table_mu (table_name k) (R.mutex ~name:(table_name k ^ ".meta") ());
      Hashtbl.replace table_rw (table_name k) (R.rwlock ~name:(table_name k ^ ".rows") ())
    done;
    (* Buffer-pool latches partitioned per table (in the spirit of
       innodb_buffer_pool_instances): statements on distinct tables share
       no latch, which is what lets the dependency-aware delivery layer
       run them on separate lanes without lock-order conflicts. *)
    let bufpool = Hashtbl.create 16 in
    for k = 1 to cfg.ntables do
      Hashtbl.replace bufpool (table_name k)
        (R.mutex ~name:("mysqld.bufpool." ^ table_name k) ())
    done;
    let bufpool_walk tbl =
      match Hashtbl.find_opt bufpool tbl with
      | None -> ()
      | Some mu ->
        for _ = 1 to cfg.bufpool_ops do
          R.lock mu;
          R.work cfg.bufpool_op_cost;
          R.unlock mu
        done
    in
    (* B-tree descent: page-sized compute steps with latch operations in
       between (InnoDB pins/unpins a page per level). *)
    let lookup_walk ~arena ~salt =
      let module B2 = App_base.Make (R) in
      B2.staged_compute ~salt ~spread:20 ~arena ~segments:5
        ~segment_cost:(cfg.lookup_cost / 5) ()
    in
    let run_stmt ~arena stmt =
      R.work cfg.parse_cost;
      match stmt with
      | Sqlkit.Select { tbl; id } -> (
        match (Hashtbl.find_opt table_mu tbl, Hashtbl.find_opt table_rw tbl) with
        | Some mu, Some rw -> (
          R.lock mu;
          R.unlock mu;
          R.rdlock rw;
          bufpool_walk tbl;
          lookup_walk ~arena ~salt:id;
          let result =
            match Sqlkit.table !db tbl with
            | Some t -> Sqlkit.select t ~id
            | None -> None
          in
          R.rwunlock rw;
          match result with
          | Some v -> Printf.sprintf "row id=%d c=%d\n" id v
          | None -> "empty set\n")
        | _, _ -> "ERROR unknown table\n")
      | Sqlkit.Update { tbl; id; value } -> (
        match (Hashtbl.find_opt table_mu tbl, Hashtbl.find_opt table_rw tbl) with
        | Some mu, Some rw ->
          R.lock mu;
          R.unlock mu;
          R.wrlock rw;
          bufpool_walk tbl;
          lookup_walk ~arena ~salt:id;
          (match Sqlkit.table !db tbl with
          | Some t -> Sqlkit.update t ~id ~value
          | None -> ());
          R.rwunlock rw;
          "OK 1 row affected\n"
        | _, _ -> "ERROR unknown table\n")
    in
    let worker i =
      (* Bind the shard before [serve]: the inner match on [find_sub]
         shadows [i] with the newline offset, and two workers landing on
         the same shard cell would break its thread confinement. *)
      let shard = i - 1 in
      let arena = R.mutex ~name:(Printf.sprintf "mysqld.arena%d" i) () in
      let rec loop () =
        match B.Worklist.get worklist with
        | None -> ()
        | Some conn ->
          (* Handshake, then line-oriented statements. *)
          R.send conn "mysql-sim 5.6 ready\n";
          let buf = Buffer.create 64 in
          let rec serve () =
            match Str_util.find_sub (Buffer.contents buf) "\n" with
            | Some i ->
              let line = String.sub (Buffer.contents buf) 0 i in
              let rest =
                String.sub (Buffer.contents buf) (i + 1) (Buffer.length buf - i - 1)
              in
              Buffer.clear buf;
              Buffer.add_string buf rest;
              (match Sqlkit.parse_stmt line with
              | Some stmt ->
                B.Sharded_counter.incr queries ~shard;
                R.send conn (run_stmt ~arena stmt)
              | None -> if String.trim line <> "" then R.send conn "ERROR syntax\n");
              serve ()
            | None ->
              let chunk = R.recv conn ~max:4096 in
              if chunk = "" then R.close conn
              else begin
                Buffer.add_string buf chunk;
                serve ()
              end
          in
          serve ();
          loop ()
      in
      loop ()
    in
    R.spawn ~name:"mysqld-listener" (fun () ->
        let l = R.listen ~port:cfg.port in
        while not (R.cell_get stopped) do
          R.poll l;
          let conn = R.accept l in
          B.Worklist.add worklist conn
        done);
    for i = 1 to cfg.nworkers do
      R.spawn ~name:(Printf.sprintf "mysqld-worker%d" i) (fun () -> worker i)
    done;
    Api.handle ~name:"mysql"
      ~state_of:(fun () ->
        let buf = Buffer.create 4096 in
        Buffer.add_string buf (string_of_int (B.Sharded_counter.get queries));
        Buffer.add_char buf '|';
        Sqlkit.serialize_into buf !db;
        Buffer.contents buf)
      ~load_state:(fun s ->
        match String.index_opt s '|' with
        | Some i ->
          B.Sharded_counter.set queries (int_of_string (String.sub s 0 i));
          db := Sqlkit.deserialize (String.sub s (i + 1) (String.length s - i - 1))
        | None -> ())
      ~mem_bytes:(fun () -> cfg.mem_bytes)
      ~stop:(fun () ->
        R.cell_set stopped true;
        B.Worklist.close worklist)
      ~read:(fun line ->
        (* Point SELECTs answer from the table directly; anything else
           (UPDATE, unparsable) stays on the consensus path.  Skips the
           lock choreography and cost model: the fast path's latency is
           the proxy's, not the modeled B-tree descent's. *)
        match Sqlkit.parse_stmt (String.trim line) with
        | Some (Sqlkit.Select { tbl; id }) -> (
          match Sqlkit.table !db tbl with
          | Some t -> (
            match Sqlkit.select t ~id with
            | Some v -> Some (Printf.sprintf "row id=%d c=%d\n" id v)
            | None -> Some "empty set\n")
          | None -> Some "ERROR unknown table\n")
        | Some (Sqlkit.Update _) | None -> None)
      ~footprint:(fun line ->
        (* Every statement on a table — SELECT included — acquires its
           metadata mutex and buffer-pool latch, lock-order conflicts
           the certifier would (rightly) flag; so same-table statements
           serialize and the footprint declares the table written either
           way.  Parallelism comes from statements on distinct tables,
           which share no lock or row. *)
        match Sqlkit.parse_stmt (String.trim line) with
        | Some (Sqlkit.Select { tbl; _ }) | Some (Sqlkit.Update { tbl; _ })
          ->
          Some { Api.fp_reads = []; fp_writes = [ tbl ] }
        | None -> None)
      ()
  in
  { Api.name = "mysql"; install = install cfg; boot }
