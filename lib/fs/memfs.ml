module M = Map.Make (String)

type snapshot = string M.t

type t = { mutable files : snapshot }

let create () = { files = M.empty }

let write t ~path content = t.files <- M.add path content t.files

let append t ~path content =
  let current = match M.find_opt path t.files with Some c -> c | None -> "" in
  t.files <- M.add path (current ^ content) t.files

let read t ~path = M.find_opt path t.files

let read_exn t ~path =
  match read t ~path with
  | Some c -> c
  | None -> raise Not_found

let exists t ~path = M.mem path t.files
let delete t ~path = t.files <- M.remove path t.files

let list t ~prefix =
  M.fold
    (fun path _ acc -> if String.starts_with ~prefix path then path :: acc else acc)
    t.files []
  |> List.sort compare

let file_count t = M.cardinal t.files

let snapshot t = t.files
let restore t snap = t.files <- snap
let of_snapshot snap = { files = snap }
let snapshot_bytes snap = M.fold (fun _ c acc -> acc + String.length c) snap 0
let snapshot_equal = M.equal String.equal
let iter_snapshot snap f = M.iter f snap
