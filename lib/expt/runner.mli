(** Shared driver for the experiments: runs a protocol (as a first-class
    module) over many seeds and aggregates results. *)

type input_gen =
  | Zeros
  | All_ones
  | Random_bits of float  (** Each input is 1 with this probability. *)
  | Exact of int array

type spec = {
  protocol : (module Ftc_sim.Protocol.S);
  n : int;
  alpha : float;
  inputs : input_gen;
  adversary : unit -> Ftc_sim.Adversary.t;
  link : unit -> Ftc_sim.Link.t;  (** Fresh omission model per run. *)
  queue : Ftc_sim.Queue_model.config option;
      (** Bounded per-destination ingress queues; [None] = unbounded. *)
  transport : Ftc_transport.Transport.config option;
      (** [Some _] wraps the protocol in the reliable transport (and doubles
          the CONGEST budget: data and ack can share an edge-round). *)
  congest : bool;  (** false = LOCAL (no per-edge bit budget). *)
  trace : Ftc_sim.Trace.mode;
      (** {!Ftc_sim.Engine.config.trace}: [Tally] for the chaos oracles,
          [Log] only for readers of the event sequence. *)
  trial_timeout : float option;
      (** Wall-clock budget in seconds for one trial. When set, {!run}
          arms a cooperative watchdog ({!Ftc_sim.Engine.config.watchdog})
          that stops the engine at the first round boundary past the
          deadline; the outcome comes back with
          [result.watchdog_expired = true] and the supervisor classifies
          the trial as [Watchdog_expired]. [None] (default) = no budget. *)
  fast_protocol : (module Ftc_sim.Fast_protocol.S) option;
      (** When set, trials run this hand-written codec port of
          [protocol] ({!Ftc_sim.Engine.Make_codec}) instead of
          [protocol] through the generic adapter — bit-identical
          results, pinned by the differential suite. [protocol] is still
          consulted for telemetry naming and callers' predicates. A
          [transport]-wrapped run ignores the port and takes the
          adapter: the wrapper transforms a {!Ftc_sim.Protocol.S}. *)
}

val default_spec : (module Ftc_sim.Protocol.S) -> n:int -> alpha:float -> spec
(** Zero inputs, no adversary, reliable links, no queue, no transport,
    CONGEST on, no trace. *)

type outcome = {
  result : Ftc_sim.Engine.result;
  inputs_used : int array;
  seed : int;
  transport_stats : Ftc_transport.Transport.stats option;
      (** The wrapper's overhead breakdown — [Some] iff the spec asked for
          the transport. *)
}

exception
  Model_violation of {
    protocol : string;
    n : int;
    alpha : float;
    seed : int;
    violations : Ftc_sim.Violation.t list;
  }
(** Raised by {!run_exn}; carries {e every} violation of the run, not just
    the first. A printer is registered, so an uncaught one reads well. *)

val run : ?recorder:Ftc_telemetry.Recorder.t -> spec -> seed:int -> outcome
(** With {!run_judged}, the one place an instance becomes an engine
    run: it builds the {!Ftc_sim.Engine.config}, wraps the transport
    (doubling the CONGEST budget), picks the codec port or the adapter,
    arms the watchdog and the round clock, and records the trial's
    telemetry.

    Input generation is seeded by [seed], so an outcome is reproducible
    from [(spec, seed)] alone. Never raises on model violations — inspect
    {!violations} (the chaos harness treats them as findings).

    The engine's watchdog ({!Ftc_sim.Engine.config.watchdog}) is
    {!deadline} of [spec.trial_timeout], armed when the trial starts.

    With a live [recorder] (default: the disabled one), the trial is
    instrumented: the engine's round clock is armed, a [Trial] event and
    per-phase [Span]s (cut along the protocol's
    {!Ftc_sim.Protocol.S.phases} calendar) are emitted on track
    ["seed-N"], and the standard counters/histograms are fed. The
    [Trial] event is [ok] iff the run was model-clean: no violations,
    no timeout, no watchdog stop. The simulation result is bit-identical
    either way. *)

val run_judged :
  ?watchdog:(unit -> bool) ->
  ?recorder:Ftc_telemetry.Recorder.t ->
  spec ->
  seed:int ->
  judge:(outcome -> 'a * bool) ->
  outcome * 'a
(** As {!run}, but [judge] rules on the outcome before its telemetry is
    recorded: its verdict is returned alongside the outcome, and its
    bool is the [Trial] event's [ok]. The chaos harness judges with its
    oracles, so a case is [ok] iff they found nothing. A given
    [watchdog] replaces the [trial_timeout] deadline: the serve
    supervisor passes its kill-injecting poll. *)

val deadline : float -> unit -> bool
(** [deadline secs] arms a wall-clock watchdog now: the closure returns
    [true] once [secs] seconds have passed. *)

val violations : outcome -> Ftc_sim.Violation.t list

val ensure_clean : spec -> outcome -> unit
(** Raise {!Model_violation} iff the outcome recorded any violation. This
    is the check {!run_exn} applies; the supervisor calls it per trial so
    a violating seed fails (or quarantines) just that trial. *)

val run_exn : ?recorder:Ftc_telemetry.Recorder.t -> spec -> seed:int -> outcome
(** As {!run}, but raises {!Model_violation} when the engine reported any
    violation — experiments must be model-clean. *)

val run_many : ?recorder:Ftc_telemetry.Recorder.t -> spec -> seeds:int list -> outcome list
(** Runs every seed through {!run_exn}. *)

val run_many_par :
  ?recorder:Ftc_telemetry.Recorder.t -> jobs:int -> spec -> seeds:int list -> outcome list
(** As {!run_many}, but the trials run on [jobs] workers, the calling
    domain among them ({!Ftc_parallel.Pool.run_map}). The determinism
    contract: per-trial outcomes are bit-identical to the sequential
    path — trials share no state, so only the execution interleaving
    differs, and results are returned in seed order regardless. On
    violations, raises the same {!Model_violation} (first violating
    seed) the sequential path would.
    [jobs = 1] is exactly [run_many] (no domains spawned). Raises
    [Invalid_argument] when [jobs < 1]. A live [recorder] additionally
    installs a pool monitor, so queue wait and per-domain busy time are
    recorded alongside the trials. *)

val run_many_par_raw :
  ?recorder:Ftc_telemetry.Recorder.t -> jobs:int -> spec -> seeds:int list -> outcome list
(** As {!run_many_par}, but through {!run}: violations stay in the
    outcomes, never raised — for experiments (lossy raw, Byzantine probe)
    that treat model violations as data. *)

type trial_stats = { success : bool; msgs : int; bits : int; rounds : int }
(** The per-trial facts an aggregate is built from — exactly what the
    trial journal records, so a resumed sweep aggregates journaled trials
    and fresh ones identically. *)

val stats_of : ok:(outcome -> bool) -> outcome -> trial_stats

type aggregate = {
  trials : int;
  successes : int;
  success_rate : float;
  msgs : Ftc_analysis.Stats.summary;
  bits : Ftc_analysis.Stats.summary;
  rounds : Ftc_analysis.Stats.summary;
}

val empty_aggregate : aggregate
(** [trials = 0], [success_rate = 0.], every summary {!Ftc_analysis.Stats.empty}. *)

val aggregate_stats : trial_stats list -> aggregate
(** Aggregate per-trial stats in list order (float accumulation order is
    part of the determinism contract). An empty list yields
    {!empty_aggregate} instead of raising — a sweep whose every trial
    failed under [--keep-going] still reports structure. *)

val aggregate : ok:(outcome -> bool) -> outcome list -> aggregate
(** [aggregate_stats (List.map (stats_of ~ok) outcomes)]. Empty input
    yields {!empty_aggregate}. *)

val seeds : base:int -> count:int -> int list
