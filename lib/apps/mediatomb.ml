(** MediaTomb model (paper §7): a uPnP multimedia server whose web
    interface triggers mencoder transcodes (15 MB AVI to MP4, ~9.7 s per
    request on the paper's machines).

    The transcoder is a two-stage pipeline (decoder thread feeding an
    encoder through a frame queue) with a synchronization per frame — the
    pattern behind the paper's context-switch comparison: the Pthreads run
    makes ~0.9 M synchronization context switches where PARROT's aligned
    round-robin makes ~6.6 K, which is why MediaTomb {e speeds up} under
    CRANE (Figure 14). *)

module Time = Crane_sim.Time
module Api = Crane_core.Api
module Memfs = Crane_fs.Memfs

type config = {
  port : int;
  nworkers : int;
  frames : int;
  frame_cost : Time.t;  (** CPU cost per frame *)
  encoder_threads : int;  (** slice-parallel encoder threads per transcode *)
  mem_bytes : int;
}

let default_config =
  {
    port = 49152;
    nworkers = 4;
    frames = 6000;
    frame_cost = Time.us 3_233 (* 6000 x 3.2 ms over 2 threads: ~9.7 s *);
    encoder_threads = 2;
    mem_bytes = 2_000_000;
  }

let install fs =
  Memfs.write fs ~path:"media/video15.avi" (String.make 600_000 'V');
  Memfs.write fs ~path:"media/clip2.avi" (String.make 200_000 'v');
  Memfs.write fs ~path:"config/config.xml" "<config><transcoding/></config>"

let server ?(cfg = default_config) () : Api.server =
  let boot api =
    let module R = (val api : Api.API) in
    let module B = App_base.Make (R) in
    let transcoded = B.Counter.create ~name:"mediatomb.transcoded" () in
    let stopped = R.cell ~name:"mediatomb.stopped" false in
    let worklist = B.Worklist.create ~name:"mediatomb.worklist" () in
    (* mencoder: slice-parallel encoding — each encoder thread owns a
       static partition of the frames (mencoder's slice threading) and
       synchronizes on its own codec context per frame.  Same-period
       workers fall into lockstep under the round-robin DMT scheduler,
       which is why MediaTomb needs no hints (§7.1); a shared work queue
       here would instead serialize the pool (a mutex is held across a
       whole turn rotation under DMT). *)
    let transcode src =
      let remaining = R.cell ~name:"mencoder.remaining" cfg.encoder_threads in
      let mu = R.mutex ~name:"mencoder.mu" () in
      let all_done = R.cond ~name:"mencoder.all_done" () in
      let per = (cfg.frames + cfg.encoder_threads - 1) / cfg.encoder_threads in
      let encode_slice e =
        (* One progress signal per frame (codec stats): a single
           synchronization, so no lock is ever held across a scheduler
           rotation. *)
        let progress = R.cond ~name:"mencoder.progress" () in
        let lo = ((e - 1) * per) + 1 in
        let hi = min cfg.frames (e * per) in
        for _f = lo to hi do
          R.work cfg.frame_cost;
          R.cond_signal progress
        done;
        R.lock mu;
        R.cell_set remaining (R.cell_get remaining - 1);
        if R.cell_get remaining = 0 then R.cond_broadcast all_done;
        R.unlock mu
      in
      for e = 2 to cfg.encoder_threads do
        R.spawn ~name:(Printf.sprintf "mencoder-enc%d" e) (fun () -> encode_slice e)
      done;
      encode_slice 1;
      R.lock mu;
      while R.cell_get remaining > 0 do
        R.cond_wait all_done mu
      done;
      R.unlock mu;
      ignore (Memfs.read R.fs ~path:src);
      Printf.sprintf "%d frames" cfg.frames
    in
    let handle conn (req : Httpkit.request) =
      match String.split_on_char '/' req.Httpkit.path with
      | [ ""; "transcode"; video ] ->
        let src = "media/" ^ video in
        if Memfs.exists R.fs ~path:src then begin
          let frames = transcode src in
          let dst = "transcoded/" ^ Filename.remove_extension video ^ ".mp4" in
          Memfs.write R.fs ~path:dst (Digest.to_hex (Digest.string frames));
          B.Counter.incr transcoded;
          B.http_respond conn ~status:200 (Printf.sprintf "transcoded %s" video)
        end
        else B.http_respond conn ~status:404 "no such media"
      | _ -> B.http_respond conn ~status:404 "unknown endpoint"
    in
    let worker () =
      let rec loop () =
        match B.Worklist.get worklist with
        | None -> ()
        | Some conn ->
          let rec serve () =
            match B.read_http conn with
            | Some req ->
              handle conn req;
              serve ()
            | None -> R.close conn
          in
          serve ();
          loop ()
      in
      loop ()
    in
    R.spawn ~name:"mediatomb-listener" (fun () ->
        let l = R.listen ~port:cfg.port in
        while not (R.cell_get stopped) do
          R.poll l;
          let conn = R.accept l in
          B.Worklist.add worklist conn
        done);
    for i = 1 to cfg.nworkers do
      R.spawn ~name:(Printf.sprintf "mediatomb-worker%d" i) (fun () -> worker ())
    done;
    Api.handle ~name:"mediatomb"
      ~state_of:(fun () -> string_of_int (B.Counter.get transcoded))
      ~load_state:(fun s -> B.Counter.set transcoded (int_of_string s))
      ~mem_bytes:(fun () -> cfg.mem_bytes)
      ~stop:(fun () ->
        R.cell_set stopped true;
        B.Worklist.close worklist)
      ()
  in
  { Api.name = "mediatomb"; install; boot }
