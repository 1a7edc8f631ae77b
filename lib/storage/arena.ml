(* Append-only record store: each record is a varint tag, a varint length
   and its bytes, packed into chunks that double from 512 B up to 64 KB
   and are never copied.  A locator is a record's chunk (high bits) and
   its offset there (low 32 bits).  No record straddles two chunks, so
   one longer than the next chunk gets a chunk of its own. *)

let min_chunk = 512 and max_chunk = 65_536

type t = {
  mutable chunks : Bytes.t array;
  mutable ends : int array; (* bytes used in each chunk *)
  mutable last : int; (* the chunk being filled *)
}

let create ?(size = min_chunk) () =
  { chunks = [| Bytes.create (max min_chunk size) |]; ends = [| 0 |]; last = 0 }

let rec varint_size n = if n < 0x80 then 1 else 1 + varint_size (n lsr 7)

let rec put b pos n =
  Bytes.unsafe_set b pos (Char.unsafe_chr (if n < 0x80 then n else n land 0x7f lor 0x80));
  if n < 0x80 then pos + 1 else put b (pos + 1) (n lsr 7)

let rec uint b pos shift acc =
  let c = Char.code (Bytes.unsafe_get b pos) in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c < 0x80 then acc else uint b (pos + 1) (shift + 7) acc

let rec skip b pos = if Char.code (Bytes.unsafe_get b pos) < 0x80 then pos + 1 else skip b (pos + 1)

let add t ~tag s =
  if tag < 0 then invalid_arg "Arena.add: negative tag";
  let len = String.length s in
  let need = varint_size tag + varint_size len + len in
  if t.ends.(t.last) + need > Bytes.length t.chunks.(t.last) then begin
    let n = t.last + 1 in
    if n = Array.length t.chunks then begin
      t.chunks <- Array.append t.chunks (Array.make n Bytes.empty);
      t.ends <- Array.append t.ends (Array.make n 0)
    end;
    t.chunks.(n) <- Bytes.create (max need (min max_chunk (2 * Bytes.length t.chunks.(t.last))));
    t.last <- n
  end;
  let b = t.chunks.(t.last) and at = t.ends.(t.last) in
  let pos = put b (put b at tag) len in
  Bytes.blit_string s 0 b pos len;
  t.ends.(t.last) <- pos + len;
  (t.last lsl 32) lor at

let offset loc = loc land 0xffff_ffff

(* Calls [f] with a record's chunk and its payload's start and length. *)
let payload t loc f =
  let b = t.chunks.(loc lsr 32) in
  let pos = skip b (offset loc) in
  f b (skip b pos) (uint b pos 0 0)

let tag t loc = uint t.chunks.(loc lsr 32) (offset loc) 0 0
let get t loc = payload t loc Bytes.sub_string

(* The bytes the record takes, its tag and length included. *)
let span t loc = payload t loc (fun _ start len -> start + len - offset loc)

(* Whether the payload starts with [p] ([exact]: and is [p]), compared in
   place. *)
let matches ~exact t loc p =
  payload t loc (fun b start len ->
      let n = String.length p in
      let rec from i = i = n || (Bytes.get b (start + i) = p.[i] && from (i + 1)) in
      (if exact then len = n else len >= n) && from 0)

let has_prefix t loc p = matches ~exact:false t loc p
let equal t loc s = matches ~exact:true t loc s

(* Bytes appended so far, dead records included. *)
let bytes t =
  let n = ref 0 in
  for c = 0 to t.last do
    n := !n + t.ends.(c)
  done;
  !n

let iter t f =
  for c = 0 to t.last do
    let b = t.chunks.(c) and at = ref 0 in
    while !at < t.ends.(c) do
      let pos = skip b !at in
      let start = skip b pos and len = uint b pos 0 0 in
      f (uint b !at 0 0) (Bytes.sub_string b start len);
      at := start + len
    done
  done
