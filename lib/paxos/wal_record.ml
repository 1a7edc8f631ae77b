(* What a replica persists per decision (paper §5.1).  Accepts and commit
   markers are a tag byte, varint view and index and a length-prefixed
   value: no strict prefix decodes, which recovery's torn-tail rule needs.
   Rare truncation headers stay [Marshal] behind their own tag. *)

module Codec = Crane_storage.Codec

type t =
  | Accept of int * int * string  (** view, index, value *)
  | Commit of int  (** every index up to this one is committed *)
  | Trunc of
      { watermark : int;
        s_index : int;
        blob : string;
        t_epoch : int;
        t_members : Crane_net.Fabric.node list
      }
      (** truncation header: entries <= [watermark] live in the snapshot
          [blob] taken at [s_index]; everything older in the WAL is
          logically void even if a crash left it on disk.  The config in
          force at truncation time is recorded so recovery of a compacted
          WAL still knows its membership. *)

let encode = function
  | Accept (view, index, value) -> Codec.record ~payload:value 'A' [ view; index ]
  | Commit index -> Codec.record 'C' [ index ]
  | Trunc _ as r -> "T" ^ Marshal.to_string r []

(* Raises on an unknown tag, truncated input or trailing bytes. *)
let decode s =
  if s <> "" && s.[0] = 'T' then (Marshal.from_string s 1 : t)
  else
    Codec.parse s (fun r ->
        match Char.chr (Codec.byte r) with
        | 'A' ->
          let view = Codec.uint r in
          let index = Codec.uint r in
          Accept (view, index, Codec.payload r)
        | 'C' -> Commit (Codec.uint r)
        | _ -> raise Codec.Malformed)

(* The index an accept or commit marker covers, read without copying the
   value; [None] for a truncation header or a malformed record. *)
let index s =
  let r = { Codec.src = s; pos = 0 } in
  try
    match Char.chr (Codec.byte r) with
    | 'A' ->
      ignore (Codec.uint r);
      Some (Codec.uint r)
    | 'C' -> Some (Codec.uint r)
    | _ -> None
  with Codec.Malformed -> None
