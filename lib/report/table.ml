(** Plain-text table rendering for the benchmark harness output. *)

let render ~title ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let pad c s = s ^ String.make (max 0 (c - String.length s)) ' ' in
  let render_row row =
    "| "
    ^ String.concat " | "
        (List.mapi (fun i w -> pad w (Option.value (List.nth_opt row i) ~default:"")) widths)
    ^ " |"
  in
  let sep =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let body = List.map render_row rows in
  String.concat "\n"
    ([ ""; "== " ^ title ^ " =="; sep; render_row header; sep ] @ body @ [ sep ])

let print ~title ~header rows = print_endline (render ~title ~header rows)
