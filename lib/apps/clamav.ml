(** ClamAV model (paper §7): an anti-virus scanning daemon.  Clients
    (clamdscan) send SCAN commands over a clamd-style line protocol; a
    worker pool walks the named directories, scans files in parallel
    (CPU cost proportional to file size against the in-memory signature
    database), reports infected files and quarantines them — mutating the
    filesystem, which the incremental checkpoints must capture. *)

module Time = Crane_sim.Time
module Api = Crane_core.Api
module Memfs = Crane_fs.Memfs

type config = {
  port : int;
  nworkers : int;
  scan_ns_per_byte : int;
  mem_bytes : int;  (** signature DB resident in memory: ~50 MB *)
  subdirs : int;
  files_per_subdir : int;
  file_bytes : int;
  infected : (int * int) list;  (** (subdir, file) carrying the test signature *)
}

let default_config =
  {
    port = 3310;
    nworkers = 8;
    scan_ns_per_byte = 100;
    mem_bytes = 50_000_000;
    subdirs = 8;
    files_per_subdir = 12;
    file_bytes = 12_000;
    infected = [ (1, 3); (4, 7); (6, 2) ];
  }

let signature = "VIRUS-TEST-SIGNATURE"

let file_path i j = Printf.sprintf "src/dir%d/file%d.c" i j

let install_tree (cfg : config) fs =
  (* The signature database: the big file that dominates C_fs. *)
  Memfs.write fs ~path:"db/main.cvd" (String.make 12_000_000 'S');
  Memfs.write fs ~path:"db/daily.cvd" (String.make 800_000 's');
  for i = 0 to cfg.subdirs - 1 do
    for j = 0 to cfg.files_per_subdir - 1 do
      let infected = List.mem (i, j) cfg.infected in
      let body =
        String.concat "\n"
          (List.init (cfg.file_bytes / 40) (fun k ->
               Printf.sprintf "/* clamav source %d-%d-%d payload */" i j k))
      in
      let body = if infected then body ^ "\n" ^ signature else body in
      Memfs.write fs ~path:(file_path i j) body
    done
  done

let server ?(cfg = default_config) () : Api.server =
  let boot api =
    let module R = (val api : Api.API) in
    let module B = App_base.Make (R) in
    let scanned = B.Counter.create ~name:"clamd.scanned" () in
    let stopped = R.cell ~name:"clamd.stopped" false in
    let worklist = B.Worklist.create ~name:"clamd.worklist" () in
    let db_mu = R.mutex ~name:"clamd.db" () in
    (* One SCAN command: walk the directory, scan each file.  Scanning is
       CPU-bound in small slices with thread-local allocator syncs; the
       shared engine lock (db_mu) is taken once per file — under DMT a
       shared mutex is held across a whole turn rotation, so taking it
       per slice would serialize the pool. *)
    let scan_dir ~arena conn dir =
      let files = Memfs.list R.fs ~prefix:dir in
      let found = ref 0 in
      R.lock db_mu;
      R.unlock db_mu;
      List.iter
        (fun path ->
          match Memfs.read R.fs ~path with
          | None -> ()
          | Some content ->
            let total = String.length content * cfg.scan_ns_per_byte in
            let slice = Time.us 300 in
            let module B2 = App_base.Make (R) in
            B2.staged_compute ~salt:(Hashtbl.hash path) ~spread:5 ~arena
              ~segments:(max 1 (total / slice))
              ~segment_cost:slice ();
            if Str_util.find_sub content signature <> None then begin
              incr found;
              (* Quarantine: the fs mutation checkpoints must capture. *)
              Memfs.write R.fs ~path:("quarantine/" ^ Filename.basename path) content;
              Memfs.delete R.fs ~path;
              R.send conn (Printf.sprintf "%s: %s FOUND\n" path signature)
            end)
        files;
      B.Counter.incr scanned;
      R.send conn (Printf.sprintf "%s: OK (%d infected)\n" dir !found)
    in
    let worker i =
      let arena = R.mutex ~name:(Printf.sprintf "clamd.arena%d" i) () in
      let rec loop () =
        match B.Worklist.get worklist with
        | None -> ()
        | Some conn ->
          let buf = Buffer.create 64 in
          let session_open = ref true in
          let rec serve () =
            if !session_open then
              (* Line-oriented protocol: commands end with '\n'. *)
              match Str_util.find_sub (Buffer.contents buf) "\n" with
              | Some i ->
                let line = String.sub (Buffer.contents buf) 0 i in
                let rest =
                  String.sub (Buffer.contents buf) (i + 1)
                    (Buffer.length buf - i - 1)
                in
                Buffer.clear buf;
                Buffer.add_string buf rest;
                (match String.split_on_char ' ' (String.trim line) with
                | [ "SCAN"; dir ] -> scan_dir ~arena conn dir
                | [ "PING" ] -> R.send conn "PONG\n"
                | [ "END" ] ->
                  R.close conn;
                  session_open := false
                | _ -> R.send conn "UNKNOWN COMMAND\n");
                serve ()
              | None ->
                let chunk = R.recv conn ~max:4096 in
                if chunk = "" then begin
                  R.close conn;
                  session_open := false
                end
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
    R.spawn ~name:"clamd-listener" (fun () ->
        let l = R.listen ~port:cfg.port in
        while not (R.cell_get stopped) do
          R.poll l;
          let conn = R.accept l in
          B.Worklist.add worklist conn
        done);
    for i = 1 to cfg.nworkers do
      R.spawn ~name:(Printf.sprintf "clamd-worker%d" i) (fun () -> worker i)
    done;
    Api.handle ~name:"clamav"
      ~state_of:(fun () -> string_of_int (B.Counter.get scanned))
      ~load_state:(fun s -> B.Counter.set scanned (int_of_string s))
      ~mem_bytes:(fun () -> cfg.mem_bytes)
      ~stop:(fun () ->
        R.cell_set stopped true;
        B.Worklist.close worklist)
      ()
  in
  { Api.name = "clamav"; install = install_tree cfg; boot }
