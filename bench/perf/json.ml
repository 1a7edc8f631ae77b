(** The little JSON the benchmark reads and writes: result lines, result
    files and [BENCHMARK.json].  No escapes beyond what those need. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Whole numbers print without a fraction; everything else keeps all its
   significant digits. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"

exception Parse_error of string

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= len && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
        (match if !pos + 1 < len then s.[!pos + 1] else ' ' with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' when !pos + 5 < len ->
          Buffer.add_char b
            (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4) land 0xff));
          pos := !pos + 4
        | _ -> fail "bad escape");
        pos := !pos + 2;
        go ()
      | Some c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let num () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = str () in
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((k, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements (v :: acc)
          | Some ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
    | Some '"' -> Str (str ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> num ()
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  if !pos <> len then fail "trailing data";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> l | _ -> []
