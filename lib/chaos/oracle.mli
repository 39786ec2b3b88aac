(** The property-oracle layer: post-run safety checks a chaos case must
    pass.

    Five oracle families, each with a stable id used in replay files:

    - ["model"] — the engine reported no {!Ftc_sim.Violation.t};
    - ["congest"] — no per-edge-per-round CONGEST budget violation;
    - ["termination"] — the run did not exhaust its round budget with
      messages in flight (only for protocols that promise quiescence);
    - ["trace-metrics"] — the trace's tally and the metrics describe the
      same execution: send/bit/crash counts agree, undelivered sends
      reconcile with crash drops plus link losses plus queue drops, and
      the link-loss, queue-drop, ECN and unroutable counts match their
      metric counters ({!Ftc_sim.Trace.counts});
    - ["election"] / ["election-explicit"] / ["agreement"] /
      ["agreement-explicit"] — the problem specification (Definitions 1
      and 2 of the paper) via {!Ftc_core.Properties}.

    The correctness oracles are with-high-probability statements, so a
    finding is not automatically a code bug — but it is always worth a
    look, and because a case is a pure function of its seed, every
    finding is replayable and shrinkable. *)

type finding = { oracle : string; detail : string }

val check :
  ?lossy_raw:bool ->
  Catalog.entry ->
  inputs:int array ->
  Ftc_sim.Engine.result ->
  finding list
(** All applicable oracles, in a deterministic order; [[]] = clean run.
    The trace oracle only fires when the run kept a trace ([Tally] or [Log]).
    [~lossy_raw:true] (a raw protocol run under an omission model it was
    never designed for) keeps only the accounting oracles — model, congest,
    trace-metrics — since failing to elect or agree under loss is measured
    degradation, not a bug. Transport-wrapped runs must pass everything. *)

val pp : Format.formatter -> finding -> unit

val same_oracle : finding list -> finding list -> bool
(** [same_oracle original now]: does [now] reproduce at least one oracle
    id of [original]? The shrinker's notion of "still fails the same
    way". *)
