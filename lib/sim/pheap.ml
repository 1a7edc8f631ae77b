(* Struct of arrays: keys live unboxed in two int arrays, so neither
   [push] nor [pop_min] allocates (outside the occasional [grow]). *)
type 'a heap = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Removal is lazy.  [remove] files the key in [dead], a second heap of
   keys; the entry leaves [live] when it reaches the top (both tops then
   hold the same key, keys being unique) or when dead entries come to
   outnumber live ones and [live] is rebuilt without them.  So the top
   of [live] is always a live entry, and dead entries never hold more
   than half of [live]. *)
type 'a t = { live : 'a heap; dead : unit heap }

let dummy () = Obj.magic 0

let heap () =
  { times = Array.make 16 0; seqs = Array.make 16 0; values = Array.make 16 (dummy ()); size = 0 }

let create () = { live = heap (); dead = heap () }

let is_empty t = t.live.size = 0
let length t = t.live.size - t.dead.size

let grow h =
  let n = 2 * Array.length h.times in
  let times = Array.make n 0 and seqs = Array.make n 0 and values = Array.make n (dummy ()) in
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.values 0 values 0 h.size;
  h.times <- times;
  h.seqs <- seqs;
  h.values <- values

let heap_push h time seq value =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and values = h.values in
  (* Sift the hole up from the end. *)
  let i = ref h.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value;
  h.size <- h.size + 1

(* Sift the hole at [i] down through the first [h.size] entries, then
   drop [(time, seq, value)] into it. *)
let sift_down h i time seq value =
  let times = h.times and seqs = h.seqs and values = h.values and n = h.size in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        values.(!i) <- values.(c);
        i := c
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  values.(!i) <- value

let heap_pop h =
  let min = h.values.(0) in
  let n = h.size - 1 in
  h.size <- n;
  let time = h.times.(n) and seq = h.seqs.(n) and value = h.values.(n) in
  h.values.(n) <- dummy ();
  if n > 0 then sift_down h 0 time seq value;
  min

(* Rebuild [live] without its dead entries: filter, then heapify. *)
let purge t =
  let live = t.live in
  let dead = Array.sub t.dead.seqs 0 t.dead.size in
  Array.sort Int.compare dead;
  let is_dead seq =
    let lo = ref 0 and hi = ref (Array.length dead) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if dead.(mid) < seq then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length dead && dead.(!lo) = seq
  in
  let n = ref 0 in
  for i = 0 to live.size - 1 do
    if not (is_dead live.seqs.(i)) then begin
      live.times.(!n) <- live.times.(i);
      live.seqs.(!n) <- live.seqs.(i);
      live.values.(!n) <- live.values.(i);
      incr n
    end
  done;
  Array.fill live.values !n (live.size - !n) (dummy ());
  live.size <- !n;
  t.dead.size <- 0;
  for i = (!n / 2) - 1 downto 0 do
    sift_down live i live.times.(i) live.seqs.(i) live.values.(i)
  done

(* Restore the invariants after an entry left [live] or joined [dead]. *)
let settle t =
  let live = t.live and dead = t.dead in
  while
    dead.size > 0 && live.times.(0) = dead.times.(0) && live.seqs.(0) = dead.seqs.(0)
  do
    ignore (heap_pop live);
    heap_pop dead
  done;
  if 2 * dead.size > live.size then purge t

let push t ~time ~seq value = heap_push t.live time seq value

let min_time t = if t.live.size = 0 then max_int else t.live.times.(0)
let min_seq t = if t.live.size = 0 then max_int else t.live.seqs.(0)

let pop_min t =
  if t.live.size = 0 then invalid_arg "Pheap.pop_min: empty heap";
  let min = heap_pop t.live in
  if t.dead.size > 0 then settle t;
  min

let remove t ~time ~seq =
  heap_push t.dead time seq ();
  settle t
