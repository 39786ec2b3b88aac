(* Codec-based protocol interface: what the struct-of-arrays engine
   ({!Engine.Make_codec}) actually runs.

   A codec protocol encodes each message as up to three fixed-width
   integer words instead of a variant payload (CONGEST already bounds
   message bits, so fixed-width encoding is natural). The engine owns
   all message storage: outgoing words go through the [emit_*] closures
   of the runtime record, incoming words are read straight out of the
   shared inbox arrays.

   Every {!Protocol.S} runs through the generic codec {!Adapter.Make};
   a hand-written codec port plugs in directly (leader election has
   one).

   Event-driven stepping: the engine steps a node at round [r] only if
   (a) a message was delivered to it at the end of round [r-1], or (b)
   the protocol asked for it via [wake] during round [r-1] (or at
   [create], for round 0). The adapter wakes every node its protocol
   does not declare idle ({!Protocol.S.idle}). A hand-written port that
   skips steps is correct only if every skipped step of the protocol it
   ports is a no-op: no actions, no observable state change, and no
   node-rng draws; such a port documents that argument. *)

type words_buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type runtime = {
  mutable inbox_words : words_buf;
      (** Flat round inbox, [words] ints per message; message [m] of a
          node whose segment starts at [s] occupies indices
          [(s + m) * words .. (s + m) * words + words - 1], in arrival
          order (the order {!Protocol.S.step} sees its inbox in).
          Re-read every step: the engine grows it in place. *)
  mutable inbox_port : int array;
      (** Receiver-side port each message arrived on, indexed like the
          message (not word) positions of [inbox_words]. *)
  mutable inbox_ecn : Bytes.t;
      (** Non-zero where the message was congestion-marked by the [ecn]
          queue discipline ({!Protocol.incoming.ecn}); indexed like
          [inbox_port]. *)
  emit_fresh : int -> int -> int -> unit;
      (** [emit_fresh w0 w1 w2]: send over a freshly opened port
          ({!Protocol.Fresh_port}). Words beyond the protocol's [words]
          are ignored — pass 0. Valid only inside [step]. *)
  emit_port : int -> int -> int -> int -> unit;  (** [emit_port p w0 w1 w2] *)
  emit_node : int -> int -> int -> int -> unit;  (** [emit_node d w0 w1 w2] (KT1 only) *)
  port_count : int -> int;
      (** Ports node [i] currently knows: every delivered message and
          every fresh send opens consecutive ports from 0. *)
  wake : int -> unit;
      (** Schedule node [i] to step next round even without a delivery.
          Callable from [create] (schedules round 0) and [step]. *)
  obs : Observation.t array;
      (** Engine-owned observation cache: [obs.(i)] must equal
          [observe t i] for node [i]'s current state whenever the
          engine is in control. [create] fills all [n] entries; after
          that the protocol replaces an entry at the moment the node's
          observation changes (a role change, a decision). The engine
          reads this array directly for adversary and link views
          instead of polling [observe] per step. *)
  note_decided : int -> unit;
      (** Tell the engine node [i]'s {!S.decide} just left [Undecided],
          at the step where the transition happens (never from
          [create]: the engine counts initial decisions itself). Powers
          O(1) quiescence detection. *)
  note_undecided : int -> unit;
      (** The reverse transition: node [i]'s {!S.decide} just went back
          to [Undecided]. *)
}

module type S = sig
  val name : string
  val knowledge : [ `KT0 | `KT1 ]

  val words : int
  (** Words per encoded message, 1..3. *)

  val msg_bits : n:int -> int -> int
  (** Bit cost charged for a message given its first word [w0]; a
      port must charge what the protocol it ports charges for the
      decoded message. *)

  val max_rounds : n:int -> alpha:float -> int
  val phases : n:int -> alpha:float -> (string * int) list

  type t
  (** Whole-network state: one value for all n nodes (struct-of-arrays
      inside), unlike {!Protocol.S}'s per-node [state]. *)

  val create :
    n:int ->
    alpha:float ->
    inputs:int array ->
    node_rngs:Ftc_rng.Rng.t array ->
    runtime ->
    t
  (** Must consume each node's rng exactly as the ported [init] does,
      in node order 0..n-1. May call [wake]; must fill every entry of
      the runtime's [obs] array; must not call [note_decided] or
      [emit_*]. *)

  val step : t -> node:int -> round:int -> inbox_start:int -> inbox_count:int -> unit
  (** Step one node: consume [inbox_count] messages starting at message
      index [inbox_start] of the runtime inbox arrays, emit sends in
      the exact order the ported step returns its actions. *)

  val decide : t -> int -> Decision.t
  val observe : t -> int -> Observation.t
end
