(* Struct of arrays: keys live unboxed in two int arrays, and each entry
   names the slot of [values] that holds its value.  Sifting moves only
   ints, so a push or pop writes its value once, not once per level (a
   write of a boxed value is a [caml_modify]), and neither allocates
   (outside the occasional [grow]). *)
type heap = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
}

(* Removal is lazy.  [remove] files the key in [dead], a second heap of
   keys; the entry leaves [live] when it reaches the top (both tops then
   hold the same key, keys being unique) or when dead entries come to
   outnumber live ones and [live] is rebuilt without them.  So the top
   of [live] is always a live entry, and dead entries never hold more
   than half of [live].  A slot is freed when its entry leaves [live]
   and reused by a later push. *)
type 'a t = {
  live : heap;
  dead : heap;
  mutable values : 'a array;
  mutable free : int array; (* stack of free slots *)
  mutable nfree : int;
}

let dummy () = Obj.magic 0

let heap () =
  { times = Array.make 16 0; seqs = Array.make 16 0; slots = Array.make 16 0; size = 0 }

let create () =
  {
    live = heap ();
    dead = heap ();
    values = Array.make 16 (dummy ());
    free = Array.init 16 (fun i -> 15 - i);
    nfree = 16;
  }

let is_empty t = t.live.size = 0
let length t = t.live.size - t.dead.size

let grow_ints a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow h =
  let n = 2 * Array.length h.times in
  h.times <- grow_ints h.times n;
  h.seqs <- grow_ints h.seqs n;
  h.slots <- grow_ints h.slots n

let heap_push h time seq slot =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and slots = h.slots in
  (* Sift the hole up from the end. *)
  let i = ref h.size in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  h.size <- h.size + 1

(* Sift the hole at [i] down through the first [h.size] entries, then
   drop [(time, seq, slot)] into it. *)
let sift_down h i time seq slot =
  let times = h.times and seqs = h.seqs and slots = h.slots and n = h.size in
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
        slots.(!i) <- slots.(c);
        i := c
      end
      else moving := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Remove the top entry; returns its slot. *)
let heap_pop h =
  let top = h.slots.(0) in
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then sift_down h 0 h.times.(n) h.seqs.(n) h.slots.(n);
  top

(* Take the value out of [slot] and put the slot back on the free stack. *)
let release t slot =
  let v = t.values.(slot) in
  t.values.(slot) <- dummy ();
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  v

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
    if is_dead live.seqs.(i) then ignore (release t live.slots.(i))
    else begin
      live.times.(!n) <- live.times.(i);
      live.seqs.(!n) <- live.seqs.(i);
      live.slots.(!n) <- live.slots.(i);
      incr n
    end
  done;
  live.size <- !n;
  t.dead.size <- 0;
  for i = (!n / 2) - 1 downto 0 do
    sift_down live i live.times.(i) live.seqs.(i) live.slots.(i)
  done

(* Restore the invariants after an entry left [live] or joined [dead]. *)
let settle t =
  let live = t.live and dead = t.dead in
  while
    dead.size > 0 && live.times.(0) = dead.times.(0) && live.seqs.(0) = dead.seqs.(0)
  do
    ignore (release t (heap_pop live));
    ignore (heap_pop dead)
  done;
  if 2 * dead.size > live.size then purge t

let push t ~time ~seq value =
  if t.nfree = 0 then begin
    (* Every slot is taken: double [values], freeing the new half. *)
    let n = Array.length t.values in
    let values = Array.make (2 * n) (dummy ()) in
    Array.blit t.values 0 values 0 n;
    t.values <- values;
    t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
    t.nfree <- n
  end;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.values.(slot) <- value;
  heap_push t.live time seq slot

let min_time t = if t.live.size = 0 then max_int else t.live.times.(0)
let min_seq t = if t.live.size = 0 then max_int else t.live.seqs.(0)

let pop_min t =
  if t.live.size = 0 then invalid_arg "Pheap.pop_min: empty heap";
  let v = release t (heap_pop t.live) in
  if t.dead.size > 0 then settle t;
  v

let remove t ~time ~seq =
  heap_push t.dead time seq 0;
  settle t
