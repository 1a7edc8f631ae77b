(** The seeded-race target: a tiny server program with one properly
    locked counter and one intentionally unsynchronized counter.

    Each thread runs two phases.  Phase 1 increments [racy.safe_count]
    under a shared mutex — contended, so the native runtime draws wake
    order and jitter from its RNG and the schedule varies across seeds.
    Phase 2 increments [racy.count] with {e no} synchronization at all:
    after a thread's final mutex release nothing orders its phase-2
    accesses with any other thread's, so the happens-before engine must
    flag the race under native for every seed.  Under DMT the cell
    wrappers serialize each access through the scheduler turn, which both
    removes the race (by serialization) and makes the whole schedule
    seed-independent — the determinism certifier's positive case. *)

module Time = Crane_sim.Time
module Api = Crane_core.Api

let threads = 3
let iters = 5

let racy_counter () : Api.server =
  let boot api =
    let module R = (val api : Api.API) in
    let mu = R.mutex ~name:"racy.mu" () in
    let safe = R.cell ~name:"racy.safe_count" 0 in
    let racy = R.cell ~name:"racy.count" 0 in
    for k = 1 to threads do
      R.spawn ~name:(Printf.sprintf "racy%d" k) (fun () ->
          for _ = 1 to iters do
            R.lock mu;
            R.cell_set safe (R.cell_get safe + 1);
            R.unlock mu;
            R.sleep (Time.us 50)
          done;
          for _ = 1 to iters do
            R.cell_set racy (R.cell_get racy + 1);
            R.sleep (Time.us 20)
          done)
    done;
    Api.handle ~name:"racy-counter"
      ~state_of:(fun () -> Printf.sprintf "%d/%d" (R.cell_get safe) (R.cell_get racy))
      ~load_state:(fun _ -> ())
      ~mem_bytes:(fun () -> 4096)
      ~stop:(fun () -> ())
      ()
  in
  { Api.name = "racy-counter"; install = (fun _ -> ()); boot }
