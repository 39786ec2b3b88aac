(** The synchronous round engine: one struct-of-arrays pipeline that
    every protocol runs on.

    Executes one protocol over a complete network of [n] nodes under a
    crash adversary, per the model of Section II of the paper:

    - rounds are synchronous; messages sent in round [r] arrive in round
      [r + 1];
    - the network is anonymous (KT0): the hidden port wiring is a uniformly
      random permutation, realised lazily (see {!Protocol});
    - a faulty node crashes in the round of the adversary's choosing, an
      adversary-chosen subset of its messages for that round is lost, and
      the node halts for ever after;
    - beyond the paper's model, an optional {!Link} fault stage may lose
      messages of *live* senders (omission faults); such losses are
      counted apart from crash losses;
    - also beyond the paper, an optional bounded ingress queue
      ({!Queue_model}) sits between the crash stage and the link stage:
      each destination's access link absorbs at most [capacity] messages
      per round, dropping (or ECN-marking) the excess per the configured
      discipline. Crash losses take precedence over queue drops, and
      queue drops over link losses, so every lost message has exactly one
      recorded cause;
    - message and bit complexity are counted at send time (a lost message
      was still sent);
    - the per-edge-per-round CONGEST budget is checked when [congest_limit]
      is [Some]; [None] models LOCAL.

    The whole execution — every node's coins, the wiring, the adversary's
    coins — is a deterministic function of [config.seed]. *)

type config = {
  n : int;
  alpha : float;  (** At least [alpha * n] nodes stay non-faulty. *)
  seed : int;
  inputs : int array option;  (** Per-node inputs (agreement); default 0. *)
  adversary : Adversary.t;
  link : Link.t;  (** Omission-fault model for live links; {!Link.reliable} = paper model. *)
  queue : Queue_model.config option;
      (** Bounded per-destination ingress queues; [None] (the default,
          the paper model) gives links unbounded capacity. *)
  congest_limit : int option;  (** Per-edge per-round bits; [None] = LOCAL. *)
  record_trace : bool;
  max_rounds_override : int option;
  watchdog : (unit -> bool) option;
      (** Cooperative per-trial watchdog: polled once per round, between
          rounds. The first poll returning [true] stops the run at that
          round boundary with {!result.watchdog_expired} set. The engine
          supplies no clock of its own — determinism of the simulation is
          untouched; only {e whether the run was cut short} depends on the
          closure (typically a wall-clock deadline, see
          [Runner.spec.trial_timeout]). [None] (the default) never stops. *)
  round_clock : (unit -> int64) option;
      (** Telemetry hook: when [Some now], [now ()] is read once per
          executed round and the deltas are reported in
          {!result.round_ns}. The simulation never consumes the values —
          the computed result is bit-identical with the hook on or off.
          [None] (the default) costs one option match per round. *)
}

type result = {
  decisions : Decision.t array;  (** Final output of every node. *)
  observations : Observation.t array;  (** Final observation of every node. *)
  faulty : bool array;  (** The adversary's chosen faulty set. *)
  crashed : bool array;  (** Nodes that actually crashed. *)
  crash_round : int array;  (** Round of crash, or -1. *)
  rounds_used : int;
  timed_out : bool;
      (** The run exhausted [max_rounds] while messages were still in
          flight: the final round's sends were delivered to inboxes that
          no node will ever read. [false] both on early stop and when the
          calendar ran out with a quiescent network (protocols that count
          rounds down in silence, e.g. implicit agreement, are not timed
          out). A watchdog stop is reported as {!watchdog_expired}, never
          as [timed_out]. *)
  watchdog_expired : bool;
      (** The [config.watchdog] poll fired and the run was stopped early
          at a round boundary. Mutually exclusive with [timed_out]. *)
  metrics : Metrics.t;
  trace : Trace.t option;
  violations : Violation.t list;
      (** Model violations (KT0 protocol used [Node] addressing, unknown
          port, adversary crashed a non-faulty node, ...). Empty in any
          correct setup; tests assert so. *)
  round_ns : int64 array;
      (** Wall-clock nanoseconds per executed round, one entry per round,
          when [config.round_clock] was armed; [[||]] otherwise. *)
}

val default_config : n:int -> alpha:float -> seed:int -> config
(** CONGEST limit at {!Congest.default_limit}, no trace, no adversary,
    reliable links, no ingress queues. *)

val validate_model : n:int -> alpha:float -> (unit, string) Stdlib.result
(** The paper's model: [n >= 2] nodes, of which at least [alpha n] stay
    non-faulty, [0 < alpha <= 1]. The one statement of the rule: chaos
    cases, the serve front-end and every [ftc] command check it here. *)

val max_faulty : n:int -> alpha:float -> int
(** [n - ceil(alpha * n)]: the largest faulty set leaving [alpha n]
    non-faulty nodes. *)

module Make_codec (C : Fast_protocol.S) : sig
  val run : config -> result
end
(** The engine over a codec protocol. *)

module Make (P : Protocol.S) : sig
  val run : config -> result
end
(** The engine over any protocol, through the generic codec
    {!Adapter.Make}: [Make (P)] is [Make_codec (Adapter.Make (P))]. *)
