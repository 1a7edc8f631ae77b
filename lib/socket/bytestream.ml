type t = { chunks : string Queue.t; mutable offset : int; mutable length : int }

let create () = { chunks = Queue.create (); offset = 0; length = 0 }
let is_empty t = t.length = 0
let length t = t.length

let push t s =
  if String.length s > 0 then begin
    Queue.add s t.chunks;
    t.length <- t.length + String.length s
  end

let take t ~max =
  if max <= 0 || t.length = 0 then ""
  else begin
    let buf = Buffer.create (min max t.length) in
    let remaining = ref max in
    let continue_ = ref true in
    while !continue_ && !remaining > 0 && not (Queue.is_empty t.chunks) do
      let head = Queue.peek t.chunks in
      let avail = String.length head - t.offset in
      if avail <= !remaining then begin
        Buffer.add_substring buf head t.offset avail;
        remaining := !remaining - avail;
        t.offset <- 0;
        ignore (Queue.pop t.chunks)
      end
      else begin
        Buffer.add_substring buf head t.offset !remaining;
        t.offset <- t.offset + !remaining;
        remaining := 0;
        continue_ := false
      end
    done;
    let s = Buffer.contents buf in
    t.length <- t.length - String.length s;
    s
  end

