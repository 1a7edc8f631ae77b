(** Generic worker-pool HTTP server with a PHP-style interpreter — the
    structure of the paper's Figure 2 (a listener accepts connections into
    a worklist; workers dequeue, interpret a page, respond).

    Apache and Mongoose are two parameterizations of this shape.  The
    [hints] switch adds the paper's two lines of PARROT soft-barrier
    hints: one initialization "in main()", one wait "before a PHP
    interpretation's start" (§7.4). *)

module Time = Crane_sim.Time
module Api = Crane_core.Api
module Memfs = Crane_fs.Memfs

type config = {
  port : int;
  nworkers : int;
  php_segments : int;  (** compute segments per page interpretation *)
  segment_cost : Time.t;  (** page cost = segments * segment_cost *)
  hints : bool;  (** PARROT soft-barrier hints on the PHP interpreter *)
  hint_timeout_ticks : int;
  mem_bytes : int;  (** resident size for the CRIU cost model *)
  docroot : string;
}

let make ~name ~(cfg : config) : Api.server =
  let install fs =
    (* A document root with the benchmark page and some site content. *)
    Memfs.write fs ~path:(cfg.docroot ^ "/test.php") "<?php benchmark_page(); ?>";
    Memfs.write fs ~path:(cfg.docroot ^ "/index.html") "<html>welcome</html>";
    for i = 1 to 40 do
      Memfs.write fs
        ~path:(Printf.sprintf "%s/static/page%d.html" cfg.docroot i)
        (String.concat "\n" (List.init 50 (fun j -> Printf.sprintf "%s line %d-%d" name i j)))
    done;
    Memfs.write fs ~path:"conf/httpd.conf" (Printf.sprintf "workers=%d" cfg.nworkers)
  in
  let boot api =
    let module R = (val api : Api.API) in
    let module B = App_base.Make (R) in
    let served =
      B.Sharded_counter.create ~name:(name ^ ".served") ~shards:cfg.nworkers ()
    in
    let stopped = R.cell ~name:(name ^ ".stopped") false in
    let worklist = B.Worklist.create ~name:(name ^ ".worklist") () in
    (* Soft barrier initialized in main() — hint line 1. *)
    let barrier =
      if cfg.hints then
        Some (R.soft_barrier ~n:cfg.nworkers ~timeout_ticks:cfg.hint_timeout_ticks)
      else None
    in
    let handle_request conn (req : Httpkit.request) arena ~shard =
      match req.Httpkit.meth with
      | "GET" ->
        (* Hint line 2: line up the PHP interpretations. *)
        (match barrier with Some sb -> R.soft_barrier_wait sb | None -> ());
        let page = cfg.docroot ^ req.Httpkit.path in
        if Memfs.exists R.fs ~path:page then begin
          if Filename.check_suffix req.Httpkit.path ".php" then
            (* Interpret the page: the expensive parallel computation. *)
            B.staged_compute ~salt:(R.conn_id conn) ~arena
              ~segments:cfg.php_segments ~segment_cost:cfg.segment_cost ();
          B.Sharded_counter.incr served ~shard;
          B.http_respond conn ~status:200 (Memfs.read_exn R.fs ~path:page)
        end
        else begin
          B.Sharded_counter.incr served ~shard;
          B.http_respond conn ~status:404 "404 Not Found"
        end
      | "PUT" ->
        Memfs.write R.fs ~path:(cfg.docroot ^ req.Httpkit.path) req.Httpkit.body;
        B.Sharded_counter.incr served ~shard;
        B.http_respond conn ~status:201 "Created"
      | "DELETE" ->
        Memfs.delete R.fs ~path:(cfg.docroot ^ req.Httpkit.path);
        B.Sharded_counter.incr served ~shard;
        B.http_respond conn ~status:200 "Deleted"
      | _ -> B.http_respond conn ~status:500 "unsupported method"
    in
    let worker i =
      let arena = R.mutex ~name:(Printf.sprintf "%s.arena%d" name i) () in
      (* per-worker interpreter arena *)
      let rec loop () =
        match B.Worklist.get worklist with
        | None -> ()
        | Some conn ->
          let rec serve () =
            match B.read_http conn with
            | Some req ->
              handle_request conn req arena ~shard:(i - 1);
              serve ()
            | None -> R.close conn
          in
          serve ();
          loop ()
      in
      loop ()
    in
    R.spawn ~name:(name ^ "-listener") (fun () ->
        let l = R.listen ~port:cfg.port in
        while not (R.cell_get stopped) do
          R.poll l;
          let conn = R.accept l in
          B.Worklist.add worklist conn
        done);
    for i = 1 to cfg.nworkers do
      R.spawn ~name:(Printf.sprintf "%s-worker%d" name i) (fun () -> worker i)
    done;
    Api.handle ~name:name
      ~state_of:(fun () -> string_of_int (B.Sharded_counter.get served))
      ~load_state:(fun s -> B.Sharded_counter.set served (int_of_string s))
      ~mem_bytes:(fun () -> cfg.mem_bytes)
      ~stop:(fun () ->
        R.cell_set stopped true;
        B.Worklist.close worklist)
      ~read:(fun raw ->
        (* Static GETs answer straight from the document root.  PHP
           pages stay on the consensus path: their interpretation is
           the workload being measured (and hint-synchronized). *)
        if not (Httpkit.is_complete raw) then None
        else
          match Httpkit.parse_request raw with
          | Some { Httpkit.meth = "GET"; path; _ }
            when not (Filename.check_suffix path ".php") ->
            let page = cfg.docroot ^ path in
            let now = Time.to_string (R.now ()) in
            if Memfs.exists R.fs ~path:page then
              Some
                (Httpkit.response ~now ~status:200
                   (Memfs.read_exn R.fs ~path:page))
            else Some (Httpkit.response ~now ~status:404 "404 Not Found")
          | Some _ | None -> None)
      ~footprint:(fun raw ->
        (* One request touches one document-root path; the PHP
           interpreter's arena lock is per-worker and the served
           counter is sharded, so distinct paths really are disjoint.
           Incomplete requests (split across sends) stay undeclared. *)
        if not (Httpkit.is_complete raw) then None
        else
          match Httpkit.parse_request raw with
          | Some { Httpkit.meth = "GET"; path; _ } ->
            Some { Api.fp_reads = [ cfg.docroot ^ path ]; fp_writes = [] }
          | Some { Httpkit.meth = "PUT" | "DELETE"; path; _ } ->
            Some { Api.fp_reads = []; fp_writes = [ cfg.docroot ^ path ] }
          | Some _ | None -> None)
      ()
  in
  { Api.name; install; boot }
