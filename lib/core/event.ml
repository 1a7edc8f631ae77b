(** Values decided by PAXOS: clients' incoming socket calls and time
    bubbles (paper §2.1, §4).  Encoded to opaque strings for the consensus
    component and its durable log. *)

module Codec = Crane_storage.Codec

type t =
  | Connect of { conn : int; port : int }  (** client connect() *)
  | Send of { conn : int; payload : string }  (** client send() *)
  | Close of { conn : int }  (** client close() *)
  | Time_bubble of { nclock : int }

(* A tag byte (0..3: no event starts with Paxos's "CRANE-CFG:" tag), varint
   fields and a length-prefixed payload.  [encode] raises [Invalid_argument]
   on a negative field; [decode] raises [Codec.Malformed] on an unknown
   tag, truncated input or trailing bytes. *)
let encode : t -> string = function
  | Connect { conn; port } -> Codec.record '\000' [ conn; port ]
  | Send { conn; payload } -> Codec.record ~payload '\001' [ conn ]
  | Close { conn } -> Codec.record '\002' [ conn ]
  | Time_bubble { nclock } -> Codec.record '\003' [ nclock ]

let decode s : t =
  Codec.parse s (fun r ->
      match Codec.byte r with
      | 0 ->
        let conn = Codec.uint r in
        Connect { conn; port = Codec.uint r }
      | 1 ->
        let conn = Codec.uint r in
        Send { conn; payload = Codec.payload r }
      | 2 -> Close { conn = Codec.uint r }
      | 3 -> Time_bubble { nclock = Codec.uint r }
      | _ -> raise Codec.Malformed)

let is_bubble = function Time_bubble _ -> true | Connect _ | Send _ | Close _ -> false

let pp fmt = function
  | Connect { conn; port } -> Format.fprintf fmt "connect(conn=%d,port=%d)" conn port
  | Send { conn; payload } -> Format.fprintf fmt "send(conn=%d,%dB)" conn (String.length payload)
  | Close { conn } -> Format.fprintf fmt "close(conn=%d)" conn
  | Time_bubble { nclock } -> Format.fprintf fmt "bubble(%d)" nclock
