(** A tiny in-memory table engine for the MySQL model: integer-keyed
    tables with point SELECT/UPDATE, serializable to a state blob for the
    CRIU-substitution checkpoint. *)

type table = { name : string; rows : (int, int) Hashtbl.t }

type db = { tables : (string, table) Hashtbl.t }

let create_db () = { tables = Hashtbl.create 16 }

let create_table db name rows =
  let t = { name; rows = Hashtbl.create (max 16 rows) } in
  for id = 1 to rows do
    Hashtbl.replace t.rows id (id * 37)
  done;
  Hashtbl.replace db.tables name t;
  t

let table db name = Hashtbl.find_opt db.tables name
let select t ~id = Hashtbl.find_opt t.rows id
let update t ~id ~value = Hashtbl.replace t.rows id value
let row_count t = Hashtbl.length t.rows

(* Deterministic serialization, "name:id=v,id=v;name:...": tables by
   name, rows by id, written straight into [buf]. *)
let serialize_into buf db =
  let tables = Hashtbl.fold (fun _ t acc -> t :: acc) db.tables [] in
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf t.name;
      Buffer.add_char buf ':';
      let ids = Array.make (Hashtbl.length t.rows) 0 and n = ref 0 in
      Hashtbl.iter (fun id _ -> ids.(!n) <- id; incr n) t.rows;
      Array.sort Int.compare ids;
      Array.iteri
        (fun j id ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int id);
          Buffer.add_char buf '=';
          Buffer.add_string buf (string_of_int (Hashtbl.find t.rows id)))
        ids)
    (List.sort (fun a b -> String.compare a.name b.name) tables)

let serialize db =
  let buf = Buffer.create 4096 in
  serialize_into buf db;
  Buffer.contents buf

let deserialize s =
  let db = create_db () in
  if s <> "" then
    List.iter
      (fun chunk ->
        match String.index_opt chunk ':' with
        | None -> ()
        | Some i ->
          let name = String.sub chunk 0 i in
          let rows_s = String.sub chunk (i + 1) (String.length chunk - i - 1) in
          let t = { name; rows = Hashtbl.create 64 } in
          if rows_s <> "" then
            List.iter
              (fun kv ->
                match String.split_on_char '=' kv with
                | [ id; v ] -> Hashtbl.replace t.rows (int_of_string id) (int_of_string v)
                | _ -> ())
              (String.split_on_char ',' rows_s);
          Hashtbl.replace db.tables name t)
      (String.split_on_char ';' s);
  db

(* Very small SQL surface: SELECT c FROM t WHERE id=N / UPDATE t SET c=V
   WHERE id=N. *)
type stmt =
  | Select of { tbl : string; id : int }
  | Update of { tbl : string; id : int; value : int }

let parse_stmt line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "SELECT"; _; "FROM"; tbl; "WHERE"; cond ] -> (
    match String.split_on_char '=' cond with
    | [ "id"; n ] -> Option.map (fun id -> Select { tbl; id }) (int_of_string_opt n)
    | _ -> None)
  | [ "UPDATE"; tbl; "SET"; assign; "WHERE"; cond ] -> (
    match (String.split_on_char '=' assign, String.split_on_char '=' cond) with
    | [ "c"; v ], [ "id"; n ] -> (
      match (int_of_string_opt v, int_of_string_opt n) with
      | Some value, Some id -> Some (Update { tbl; id; value })
      | _, _ -> None)
    | _, _ -> None)
  | _ -> None
