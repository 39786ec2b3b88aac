type dest = Fresh_port | Port of int | Node of int

type 'msg action = { dest : dest; payload : 'msg }

type 'msg incoming = { from_port : int; payload : 'msg; ecn : bool }

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
  (** The protocol's static phase calendar: [(phase_name, first_round)]
      pairs in strictly increasing round order, the first at round 0.
      Each phase extends to the next phase's first round (the last to
      the end of the run). Purely an observability annotation — the
      engine never reads it; telemetry uses it to attribute per-round
      message/bit counts to algorithm phases (referee selection,
      candidate sampling, leader broadcast, ...). Protocols without
      meaningful internal structure can use {!single_phase}. *)

  val init : ctx -> state

  val step :
    ctx -> state -> round:int -> inbox:msg incoming list -> state * msg action list

  val idle : ctx -> state -> round:int -> bool
  (** [idle ctx st ~round = true] promises that from [round] on, until
      a message arrives, stepping the node on an empty inbox has no
      effect anyone can observe: no actions, no change to [decide] or
      [observe], no draws on the node's coin, and nothing a later step
      could tell apart. The engine then leaves the node unstepped until
      its next delivery, so at large n only the nodes with work cost
      anything. {!never_idle} is always correct; the differential
      suite checks every protocol's promise against an interpreter
      that steps every node every round. *)

  val decide : state -> Decision.t
  val observe : state -> Observation.t
end

(* Default one-phase calendar for protocols (and test harnesses) with no
   internal phase structure worth attributing. *)
let single_phase ~n:_ ~alpha:_ = [ ("run", 0) ]

(* The idle promise of a protocol that makes none. *)
let never_idle _ _ ~round:_ = false
