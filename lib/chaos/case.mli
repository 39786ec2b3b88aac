(** One fuzz case: everything needed to re-execute a run bit-for-bit.

    A case is a pure description — protocol id, network shape, root seed,
    explicit inputs, and a deterministic crash plan in the format of
    {!Ftc_fault.Strategy.scheduled}. Running the same case twice yields
    the same execution, which is what makes shrinking and replay sound. *)

type t = {
  protocol : string;  (** A {!Catalog} entry name. *)
  n : int;
  alpha : float;
  seed : int;
  inputs : int array;  (** Always length [n]; all-zero for elections. *)
  plan : (int * int * Ftc_sim.Adversary.drop_rule) list;
      (** [(node, round, rule)] triples; empty = fault-free. *)
  adversary : string option;
      (** A named {!Ftc_fault.Strategy} adversary ([Strategy.all] name)
          instead of an explicit plan. The adversary draws its own coins
          from the case seed, so the case is still fully reproducible.
          Mutually exclusive with a non-empty [plan]; used by [ftc sweep]
          where trials run under randomized adversaries but must remain
          replayable from the quarantine file. *)
  loss : Ftc_fault.Omission.spec;  (** Omission model on live links. *)
  queue : Ftc_sim.Queue_model.config option;
      (** Bounded per-destination ingress queues ([None] = unbounded).
          A droppy discipline ([drop-tail], [red]) downgrades raw cases
          to the accounting oracles exactly as injected loss does; the
          lossless [ecn] discipline downgrades nothing. *)
  transport : bool;
      (** Run the protocol wrapped in {!Ftc_transport.Transport} (with a
          doubled CONGEST budget for the framing). *)
}

val equal : t -> t -> bool

type error = Unknown_protocol of string | Invalid_case of string

val error_to_string : error -> string

val validate : t -> (Catalog.entry, error) result
(** Checks the case shape, the loss spec, the queue config, and the crash
    plan against the protocol's fault budget and round range — the
    {e wrapped} round range when the case uses the transport — without
    running anything. *)

val run :
  ?watchdog:(unit -> bool) ->
  ?recorder:Ftc_telemetry.Recorder.t ->
  t ->
  (Ftc_sim.Engine.result * Oracle.finding list, error) result
(** Deterministically executes the case (with tracing, so the
    trace-metrics oracle applies) and judges it against every applicable
    oracle. The protocol runs on its catalog codec port when it has one
    and the case is not transport-wrapped, on the generic adapter
    otherwise; the results are the same. A lossy case without the transport is judged by the accounting
    oracles only (see {!Oracle.check}'s [lossy_raw]). [watchdog] is passed
    through to {!Ftc_sim.Engine.config.watchdog}: the sweep supervisor's
    per-trial wall-clock budget; it never changes what the simulation
    computes, only whether it is cut short. A live [recorder] (default:
    disabled) instruments the run exactly as {!Ftc_expt.Runner.run}
    does: trial event, phase spans along the protocol's calendar, and
    the standard metric feed — a case marked [ok] iff the oracles found
    nothing. *)

val findings : t -> Oracle.finding list
(** [findings c] = oracle findings of [run c], [[]] if the case itself is
    invalid. The shrinker's re-check predicate. *)

val rule_to_string : Ftc_sim.Adversary.drop_rule -> string
(** ["drop-all"], ["drop-none"], ["drop-random <p>"], ["keep-prefix <k>"]
    — the replay-file spelling. *)

val pp : Format.formatter -> t -> unit
