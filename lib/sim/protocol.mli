(** The interface a distributed algorithm presents to the round engine.

    A protocol is a state machine replicated at every node. Each round the
    engine hands every live node a view of its inbox (messages sent to it
    in the previous round) and a send record through which the node
    emits its outgoing messages. Addressing reflects the paper's KT0
    anonymity:

    - [fresh] ({!Fresh_port}) — "open a uniformly random port I have never
      used". Because the hidden port wiring is a uniformly random
      permutation, the peer behind a fresh port is a uniformly random node
      among those not already behind one of this node's used ports. This
      is exactly the primitive the paper's sampling steps need.
    - [port p] ({!Port}) — re-send through a known port: one previously
      opened with [fresh], or the reply port attached to a received
      message.
    - [node id] ({!Node}) — KT1 addressing by identifier, allowed only for
      protocols that declare [`KT1] knowledge (used by baselines such as
      Gilbert–Kowalski which assume known neighbours).

    Ports open consecutively from 0: every fresh send and every delivery
    from a peer not yet behind a port takes the next number. A protocol
    that sees every delivery therefore knows exactly the ports
    [0 .. count - 1] without keeping a set of them.

    Deciding ([decide]) does not halt a node: in the implicit problems a
    node may fix its output early and keep relaying. A node stops acting
    only when it crashes or the run ends. *)

type dest =
  | Fresh_port  (** Open and send through a new uniformly random port. *)
  | Port of int  (** Send through an already-known port. *)
  | Node of int  (** KT1 only: send to the node with this identifier. *)

type 'msg send = {
  fresh : 'msg -> unit;  (** Send through a freshly opened port. *)
  port : int -> 'msg -> unit;  (** [port p m]: send [m] through known port [p]. *)
  node : int -> 'msg -> unit;  (** [node d m]: KT1 only, send [m] to node [d]. *)
}
(** The three send primitives of one step. Sends take effect in call
    order, which is the order the engine puts them on the wire; the
    record is valid only inside the step it is passed to. *)

val send_to : 'msg send -> dest -> 'msg -> unit
(** [send_to send dest m] sends [m] through the primitive [dest] names. *)

type 'msg incoming = {
  from_port : int;
      (** The receiver-side port the message arrived on; replying through
          it reaches the sender. Stable: the same peer always appears
          behind the same local port. *)
  payload : 'msg;
  ecn : bool;
      (** Congestion bit: set when the [ecn] queue discipline marked the
          message on its way through the destination's ingress queue
          ({!Queue_model}); always [false] otherwise. Congestion-aware
          layers (the transport) back off on seeing it. *)
}
(** One delivered message, for building an {!inbox} from a list. *)

type 'msg inbox
(** A read-only view of one step's inbox: its messages in arrival order,
    indexed from 0. Like the send record it is valid only inside the
    step it is passed to; the adapter re-aims one view at every node. *)

module Inbox : sig
  val length : 'msg inbox -> int

  val port : 'msg inbox -> int -> int
  (** [port ib k] is message [k]'s {!incoming.from_port}. *)

  val payload : 'msg inbox -> int -> 'msg
  val ecn : 'msg inbox -> int -> bool
  (** Message [k]'s {!incoming.ecn} mark. The accessors raise
      [Invalid_argument] for [k] outside [0 .. length - 1]. *)

  val of_list : 'msg incoming list -> 'msg inbox
  (** A view of a list of messages, first element first. *)

  val window : port:(int -> int) -> payload:(int -> 'msg) -> ecn:(int -> bool) -> 'msg inbox
  (** A view over indexed storage: message [k] is entry [first + k] of
      the three accessors, for the window {!set_window} last set (empty
      until then). Engines build one per run and move its window. *)

  val set_window : 'msg inbox -> first:int -> length:int -> unit
end

type ctx = {
  n : int;  (** Network size; known to all nodes (port count). *)
  alpha : float;  (** Guaranteed non-faulty fraction; known to all nodes. *)
  input : int;  (** This node's input value (agreement); 0 otherwise. *)
  rng : Ftc_rng.Rng.t;  (** This node's private coin. *)
  self : int option;  (** The node's own identifier — [Some] only in KT1. *)
}

module type S = sig
  type state
  type msg

  val name : string
  val knowledge : [ `KT0 | `KT1 ]

  val msg_bits : n:int -> msg -> int
  (** Bit size charged against the CONGEST budget. *)

  val max_rounds : n:int -> alpha:float -> int
  (** Upper bound on the rounds the protocol needs; the engine stops there
      (or earlier, on quiescence with every live node decided). *)

  val phases : n:int -> alpha:float -> (string * int) list
  (** The protocol's static phase calendar: [(phase_name, first_round)]
      pairs in strictly increasing round order, the first at round 0;
      each phase runs until the next one starts (the last until the run
      ends). A pure observability annotation — the engine never reads
      it; telemetry cuts per-round message/bit series into phase spans
      along it (referee selection, candidate sampling, leader broadcast,
      agreement flooding, ...). Use {!single_phase} when the protocol
      has no phase structure worth attributing. *)

  val init : ctx -> state

  val step : ctx -> state -> round:int -> inbox:msg inbox -> send:msg send -> state
  (** One synchronous round. [inbox] holds the messages sent to this
      node in round [round - 1]; what the step passes to [send] is sent
      in round [round]. The engine's adapter aims one inbox view at its
      own delivery arrays and stores each payload once, when it is
      sent, so a step that keeps its state in place allocates only the
      payloads it sends. *)

  val idle : ctx -> state -> round:int -> bool
  (** [idle ctx st ~round = true] promises that from [round] on, until
      a message arrives, stepping the node on an empty inbox has no
      effect anyone can observe: no sends, no change to [decide] or
      [observe], no draws on the node's coin, and nothing a later step
      could tell apart. The engine then leaves the node unstepped until
      its next delivery, so at large n only the nodes with work cost
      anything. {!never_idle} is always correct; the differential
      suite checks every protocol's promise against an interpreter
      that steps every node every round. *)

  val decide : state -> Decision.t
  val observe : state -> Observation.t
end

val single_phase : n:int -> alpha:float -> (string * int) list
(** The trivial one-phase calendar [[("run", 0)]]. *)

val never_idle : ctx -> 'state -> round:int -> bool
(** The {!S.idle} of a protocol that makes no promise: step every live
    node every round. *)
