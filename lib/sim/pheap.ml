(* Struct of arrays: keys live unboxed in two int arrays, so neither
   [push] nor [pop_min] allocates (outside the occasional [grow]). *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

let dummy () = Obj.magic 0

let create () =
  { times = Array.make 16 0; seqs = Array.make 16 0; values = Array.make 16 (dummy ()); size = 0 }

let is_empty t = t.size = 0
let length t = t.size

let grow t =
  let n = 2 * Array.length t.times in
  let times = Array.make n 0 and seqs = Array.make n 0 and values = Array.make n (dummy ()) in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

let push t ~time ~seq value =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and values = t.values in
  (* Sift the hole up from the end. *)
  let i = ref t.size in
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
  t.size <- t.size + 1

let min_time t = if t.size = 0 then max_int else t.times.(0)
let min_seq t = if t.size = 0 then max_int else t.seqs.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Pheap.pop_min: empty heap";
  let times = t.times and seqs = t.seqs and values = t.values in
  let min = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let time = times.(n) and seq = seqs.(n) and value = values.(n) in
  values.(n) <- dummy ();
  if n > 0 then begin
    (* Sift the hole down from the root, then drop the old last entry
       into it. *)
    let i = ref 0 in
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
  end;
  min
