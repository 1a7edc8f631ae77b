(** Un-replicated deployments for the paper's baselines: the same server
    program on a single machine, under plain Pthreads (the nondeterministic
    baseline of Figure 14) or under PARROT alone ("w/ Parrot only"), each
    on the runtime's direct socket half. *)

module Time = Crane_sim.Time
module Engine = Crane_sim.Engine
module Rng = Crane_sim.Rng
module Cores = Crane_sim.Cores
module Fabric = Crane_net.Fabric
module Sock = Crane_socket.Sock
module Memfs = Crane_fs.Memfs
module Pthread = Crane_pthread.Pthread
module Dmt = Crane_dmt.Dmt

type mode = Native | Parrot

type t = {
  eng : Engine.t;
  fabric : Fabric.t;
  world : Sock.world;
  node : string;
  runtime : Runtime.t;
  handle : Api.handle;
  dmt : Dmt.t option;
}

let boot ?(seed = 42) ?(node = "server") ?(cores = 24) ?turn_cost
    ?trace ~mode ~(server : Api.server) () =
  let eng = Engine.create () in
  (match trace with Some tr -> Engine.set_trace eng tr | None -> ());
  let rng = Rng.create seed in
  let fabric = Fabric.create eng (Rng.split rng) in
  let world = Sock.world fabric in
  let fs = Memfs.create () in
  server.Api.install fs;
  let pool = Cores.create eng cores in
  let sync, dmt =
    match mode with
    | Native -> (Runtime.Pthreads (Pthread.create eng (Rng.split rng)), None)
    | Parrot ->
      let dmt = Dmt.create ?turn_cost eng in
      Dmt.set_label dmt node;
      (Runtime.Dmt dmt, Some dmt)
  in
  let runtime = Runtime.create ~eng ~node ~fs ~cores:pool sync (Runtime.Direct world) in
  let handle = server.Api.boot runtime.Runtime.api in
  { eng; fabric; world; node; runtime; handle; dmt }

let engine t = t.eng
let world t = t.world
let output t = t.runtime.Runtime.output

let stop t =
  t.handle.Api.stop ();
  match t.dmt with Some d -> Dmt.stop d | None -> ()

let check_failures t =
  match Engine.failures t.eng with
  | [] -> ()
  | (name, e) :: _ ->
    failwith (Printf.sprintf "simulated thread %s died: %s" name (Printexc.to_string e))
