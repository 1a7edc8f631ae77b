(** Values decided by PAXOS: clients' incoming socket calls and time
    bubbles (paper §2.1, §4).  Encoded to opaque strings for the consensus
    component and its durable log. *)

type t =
  | Connect of { conn : int; port : int }  (** client connect() *)
  | Send of { conn : int; payload : string }  (** client send() *)
  | Close of { conn : int }  (** client close() *)
  | Time_bubble of { nclock : int }

let encode (t : t) = Marshal.to_string t []
let decode s : t = Marshal.from_string s 0

let is_bubble = function Time_bubble _ -> true | Connect _ | Send _ | Close _ -> false

let pp fmt = function
  | Connect { conn; port } -> Format.fprintf fmt "connect(conn=%d,port=%d)" conn port
  | Send { conn; payload } -> Format.fprintf fmt "send(conn=%d,%dB)" conn (String.length payload)
  | Close { conn } -> Format.fprintf fmt "close(conn=%d)" conn
  | Time_bubble { nclock } -> Format.fprintf fmt "bubble(%d)" nclock
