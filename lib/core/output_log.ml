(** Per-replica log of the server's outgoing socket calls (paper §7.2).

    Records the order and contents of everything the server sent; the
    consistency experiment diffs these logs across replicas.  As in the
    paper, responses are identical "except physical times", so the
    comparison can normalize away timestamp header lines.

    The log is bounded: once a prefix has been acked by every live
    replica (the compaction watermark), {!trim_to} folds it into a
    running chain digest and frees the entries.  Comparisons align the
    two logs on their trimmed prefixes — digests must match, then the
    retained regions are compared entry by entry — so trimming at
    different instants on different replicas cannot produce spurious
    divergence (or hide a real one: every byte ever recorded still
    influences the digest). *)

type entry = { conn : int; payload : string }

type t = {
  mutable entries : entry list; (* newest first *)
  mutable dropped : int; (* entries folded into [digest] and freed *)
  mutable digest : string; (* chain digest of the dropped prefix *)
}

let create () = { entries = []; dropped = 0; digest = "" }
let record t ~conn payload = t.entries <- { conn; payload } :: t.entries
let entries t = List.rev t.entries
let length t = List.length t.entries
let dropped t = t.dropped
let total t = t.dropped + List.length t.entries

let starts_at s i p =
  let n = String.length p in
  String.length s - i >= n
  &&
  let rec from k = k = n || (s.[i + k] = p.[k] && from (k + 1)) in
  from 0

(* Lines that carry physical time: HTTP Date headers and our servers'
   "X-Time:" equivalents. *)
let timed_at s i = starts_at s i "Date:" || starts_at s i "X-Time:"

let rec has_timed_line s i =
  timed_at s i
  || match String.index_from s i '\n' with
     | j -> has_timed_line s (j + 1)
     | exception Not_found -> false

(* Strip the timed lines.  Only HTTP replies have any, so every other
   payload comes back as it is, uncopied. *)
let normalize_payload payload =
  if not (has_timed_line payload 0) then payload
  else
    String.split_on_char '\n' payload
    |> List.filter (fun line -> not (timed_at line 0))
    |> String.concat "\n"

(* The chain digest always folds the normalized form: a trimmed prefix
   can no longer be compared with timestamps intact. *)
let fold_entry digest { conn; payload } =
  Digest.to_hex
    (Digest.string
       (digest ^ Printf.sprintf "[%d]%s" conn (normalize_payload payload)))

let trim_to t ~keep =
  let keep = max 0 keep in
  let n = List.length t.entries in
  if n > keep then begin
    let excess = n - keep in
    let rec go i digest l =
      if i = 0 then (digest, l)
      else
        match l with
        | [] -> (digest, [])
        | e :: rest -> go (i - 1) (fold_entry digest e) rest
    in
    let digest, kept = go excess t.digest (List.rev t.entries) in
    t.digest <- digest;
    t.dropped <- t.dropped + excess;
    t.entries <- List.rev kept
  end

(* Virtually advance [t] to [n] dropped entries: fold the oldest retained
   entries into a copy of the digest.  [None] when [n] predates this
   log's trim point or exceeds what it ever held. *)
let align t n =
  if n < t.dropped then None
  else
    let rec go i digest l =
      if i = 0 then Some (digest, l)
      else match l with [] -> None | e :: rest -> go (i - 1) (fold_entry digest e) rest
    in
    go (n - t.dropped) t.digest (entries t)

let render ?(strip_times = true) t =
  let body =
    entries t
    |> List.map (fun { conn; payload } ->
           Printf.sprintf "[%d]%s" conn
             (if strip_times then normalize_payload payload else payload))
    |> String.concat "\x00"
  in
  if t.dropped = 0 then body
  else Printf.sprintf "<%d trimmed %s>\x00%s" t.dropped t.digest body

let norm_entry strip_times e =
  (e.conn, if strip_times then normalize_payload e.payload else e.payload)

let equal ?(strip_times = true) a b =
  let n = max a.dropped b.dropped in
  match (align a n, align b n) with
  | Some (da, ra), Some (db, rb) ->
    String.equal da db
    && List.map (norm_entry strip_times) ra = List.map (norm_entry strip_times) rb
  | _ -> false

(* A replica restarted from a checkpoint only re-emits outputs for calls
   decided after the checkpoint's global index, so its log must match the
   tail of a continuously-live replica's log.  When either side has
   trimmed, only the common suffix of the retained regions is comparable
   entry-by-entry (the digests cover disjoint prefixes and cannot be
   aligned across a restart). *)
let is_suffix ?(strip_times = true) ~of_ t =
  let full = List.map (norm_entry strip_times) (entries of_)
  and tail = List.map (norm_entry strip_times) (entries t) in
  let rec skip n l =
    if n <= 0 then l else match l with [] -> [] | _ :: r -> skip (n - 1) r
  in
  if of_.dropped = 0 && t.dropped = 0 then
    let drop = List.length full - List.length tail in
    drop >= 0 && skip drop full = tail
  else
    let lf = List.length full and lt = List.length tail in
    let m = min lf lt in
    skip (lf - m) full = skip (lt - m) tail

(* First index (in whole-history coordinates) where two logs disagree,
   for diagnostics. *)
let first_divergence ?(strip_times = true) a b =
  let n = max a.dropped b.dropped in
  match (align a n, align b n) with
  | Some (da, ra), Some (db, rb) ->
    if not (String.equal da db) then Some (min a.dropped b.dropped)
    else
      let rec go i = function
        | [], [] -> None
        | x :: xs, y :: ys ->
          if norm_entry strip_times x = norm_entry strip_times y then
            go (i + 1) (xs, ys)
          else Some i
        | _ :: _, [] | [], _ :: _ -> Some i
      in
      go n (ra, rb)
  | _ -> Some (min a.dropped b.dropped)
