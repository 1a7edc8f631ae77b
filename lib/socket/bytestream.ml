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
    let n = min max t.length in
    let head = Queue.peek t.chunks in
    if t.offset = 0 && String.length head = n then begin
      ignore (Queue.pop t.chunks);
      t.length <- t.length - n;
      head
    end
    else begin
      let out = Bytes.create n in
      let pos = ref 0 in
      while !pos < n do
        let head = Queue.peek t.chunks in
        let k = min (String.length head - t.offset) (n - !pos) in
        Bytes.blit_string head t.offset out !pos k;
        pos := !pos + k;
        if t.offset + k = String.length head then begin
          t.offset <- 0;
          ignore (Queue.pop t.chunks)
        end
        else t.offset <- t.offset + k
      done;
      t.length <- t.length - n;
      Bytes.unsafe_to_string out
    end
  end
