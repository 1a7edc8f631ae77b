type t = {
  eng : Engine.t;
  n : int;
  mutable in_use : int;
  waiters : (unit -> bool) Queue.t;
}

let create eng n =
  if n < 1 then invalid_arg "Cores.create: need at least one core";
  { eng; n; in_use = 0; waiters = Queue.create () }

let busy t = t.in_use

let acquire t =
  if t.in_use < t.n then t.in_use <- t.in_use + 1
  else Engine.suspend t.eng (fun wake -> Queue.add wake t.waiters)

let release t =
  (* Hand the core to the next live waiter, if any. *)
  let rec hand_over () =
    match Queue.take_opt t.waiters with
    | None -> t.in_use <- t.in_use - 1
    | Some wake -> if not (wake ()) then hand_over ()
  in
  hand_over ()

let work t d =
  if d > 0 then begin
    acquire t;
    Engine.sleep t.eng d;
    release t
  end
