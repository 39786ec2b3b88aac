type dest = Fresh_port | Port of int | Node of int

type 'msg send = {
  fresh : 'msg -> unit;
  port : int -> 'msg -> unit;
  node : int -> 'msg -> unit;
}

let send_to send dest m =
  match dest with
  | Fresh_port -> send.fresh m
  | Port p -> send.port p m
  | Node d -> send.node d m

type 'msg incoming = { from_port : int; payload : 'msg; ecn : bool }

(* Three accessors over the owner's storage plus a movable window, so
   the engine's adapter can aim one view at its delivery arrays for the
   whole run without copying a message. *)
type 'msg inbox = {
  mutable first : int;
  mutable len : int;
  port_at : int -> int;
  payload_at : int -> 'msg;
  ecn_at : int -> bool;
}

module Inbox = struct
  let length ib = ib.len

  let index ib k =
    if k < 0 || k >= ib.len then invalid_arg "Protocol.Inbox: index out of range";
    ib.first + k

  let port ib k = ib.port_at (index ib k)
  let payload ib k = ib.payload_at (index ib k)
  let ecn ib k = ib.ecn_at (index ib k)

  let window ~port ~payload ~ecn =
    { first = 0; len = 0; port_at = port; payload_at = payload; ecn_at = ecn }

  let set_window ib ~first ~length =
    ib.first <- first;
    ib.len <- length

  let of_list msgs =
    let a = Array.of_list msgs in
    let ib =
      window
        ~port:(fun k -> a.(k).from_port)
        ~payload:(fun k -> a.(k).payload)
        ~ecn:(fun k -> a.(k).ecn)
    in
    set_window ib ~first:0 ~length:(Array.length a);
    ib
end

type ctx = {
  n : int;
  alpha : float;
  input : int;
  rng : Ftc_rng.Rng.t;
  self : int option;
}

module type S = sig
  type state
  type msg

  val name : string
  val knowledge : [ `KT0 | `KT1 ]
  val msg_bits : n:int -> msg -> int
  val max_rounds : n:int -> alpha:float -> int
  val phases : n:int -> alpha:float -> (string * int) list
  val init : ctx -> state
  val step : ctx -> state -> round:int -> inbox:msg inbox -> send:msg send -> state
  val idle : ctx -> state -> round:int -> bool
  val decide : state -> Decision.t
  val observe : state -> Observation.t
end

(* Default one-phase calendar for protocols (and test harnesses) with no
   internal phase structure worth attributing. *)
let single_phase ~n:_ ~alpha:_ = [ ("run", 0) ]

(* The idle promise of a protocol that makes none. *)
let never_idle _ _ ~round:_ = false
