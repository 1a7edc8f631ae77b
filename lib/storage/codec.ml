(* Length-checked records: a tag byte, LEB128 varints and an optional
   length-prefixed payload.  [parse] raises [Malformed] on truncated input,
   an overlong varint or trailing bytes: no strict prefix decodes. *)

exception Malformed

(* Records are built in one scratch buffer: encoding allocates its result. *)
let scratch = Buffer.create 256

let rec add_uint n =
  if n < 0 then invalid_arg "Codec.add_uint: negative"
  else if n < 0x80 then Buffer.add_char scratch (Char.unsafe_chr n)
  else begin
    Buffer.add_char scratch (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_uint (n lsr 7)
  end

let record ?payload tag fields =
  Buffer.clear scratch;
  Buffer.add_char scratch tag;
  List.iter add_uint fields;
  Option.iter (fun p -> add_uint (String.length p); Buffer.add_string scratch p) payload;
  let s = Buffer.contents scratch in
  if Buffer.length scratch > 4096 then Buffer.reset scratch;
  s

type reader = { src : string; mutable pos : int }

let byte r =
  if r.pos >= String.length r.src then raise Malformed;
  r.pos <- r.pos + 1;
  Char.code (String.unsafe_get r.src (r.pos - 1))

(* Nine bytes carry 63 bits: a tenth byte, or a ninth that sets the sign
   bit, is not a non-negative int. *)
let rec uint_from r acc shift =
  let b = byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then if acc < 0 then raise Malformed else acc
  else if shift >= 56 then raise Malformed
  else uint_from r acc (shift + 7)

let uint r = uint_from r 0 0

let payload r =
  let n = uint r in
  if n > String.length r.src - r.pos then raise Malformed;
  r.pos <- r.pos + n;
  String.sub r.src (r.pos - n) n

let parse src f =
  let r = { src; pos = 0 } in
  let v = f r in
  if r.pos <> String.length src then raise Malformed;
  v
