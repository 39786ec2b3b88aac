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

val of_seed :
  ?loss:Ftc_fault.Omission.spec ->
  ?queue:Ftc_sim.Queue_model.config ->
  ?transport:bool ->
  protocol:string ->
  n:int ->
  alpha:float ->
  adversary:string option ->
  int ->
  t
(** [of_seed ~protocol ~n ~alpha ~adversary seed]: the case [ftc sweep]
    and the serve front-end run for one seed — no crash plan, inputs
    from {!Catalog.gen_inputs} (empty when [protocol] is unknown or [n]
    negative, which {!validate} rejects), no loss, queue or transport
    unless given. *)

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
(** Validates the case, maps it to a {!Ftc_expt.Runner.spec} (with
    tracing, so the trace-metrics oracle applies, and the catalog's codec
    port as [fast_protocol]), runs it through {!Ftc_expt.Runner.run_judged}
    and judges it against every applicable oracle. The engine config,
    transport wrapper, port choice, watchdog and telemetry are all the
    runner's: the port runs unless the case is transport-wrapped, and the
    results are the same either way. A lossy case without the transport
    is judged by the accounting oracles only (see {!Oracle.check}'s
    [lossy_raw]). [watchdog] replaces the runner's wall-clock default: a
    per-trial budget or the serve supervisor's kill-injecting poll; it
    never changes what the simulation computes, only whether it is cut
    short. A live [recorder] (default: disabled) instruments the run as
    {!Ftc_expt.Runner.run} does, with the [Trial] event marked [ok] iff
    the oracles found nothing. *)

val findings : t -> Oracle.finding list
(** [findings c] = oracle findings of [run c], [[]] if the case itself is
    invalid. The shrinker's re-check predicate. *)

val rule_to_string : Ftc_sim.Adversary.drop_rule -> string
(** ["drop-all"], ["drop-none"], ["drop-random <p>"], ["keep-prefix <k>"]
    — the replay-file spelling. *)

val pp : Format.formatter -> t -> unit
