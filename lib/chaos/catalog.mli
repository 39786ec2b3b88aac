(** The protocols the chaos fuzzer sweeps, with the metadata the oracles
    need to judge them fairly.

    Every protocol in the repository is registered, but the fuzzer only
    feeds generated crash plans to the [crash_tolerant] ones: the
    fault-free baselines (Kutten et al. leader election, AMP agreement,
    push-gossip, tree-agreement) have {e documented} failure modes under
    crashes — T1 measures those rates — so fuzzing them with faults would
    only rediscover known behaviour. They are still fuzzed fault-free,
    where their guarantees must hold, and still run through the
    model/CONGEST/trace oracles. *)

type kind = Election | Agreement

type input_kind =
  | No_inputs  (** Election protocols: inputs are ignored (all zero). *)
  | Bits  (** Binary agreement: inputs drawn from {0, 1}. *)
  | Values of int  (** Multi-valued agreement: inputs uniform on [0, bound]. *)

type entry = {
  name : string;  (** Stable id, used in replay files. *)
  make : unit -> (module Ftc_sim.Protocol.S);
  fast : (unit -> (module Ftc_sim.Fast_protocol.S)) option;
      (** The protocol's hand-written codec port for
          {!Ftc_sim.Engine.Make_codec}, where one exists; {!Case.run}
          hands it to the runner, which uses it unless the case is
          transport-wrapped. The port is bit-identical to [make] by the
          differential suite's contract. *)
  kind : kind;
  explicit : bool;  (** Hold the protocol to the explicit variant's oracle. *)
  inputs : input_kind;
  crash_tolerant : bool;  (** Fuzz with generated crash plans. *)
  quiesces : bool;
      (** The protocol is expected to stop sending before its calendar
          runs out; when set, [timed_out] is a violation. *)
}

val all : entry list
(** The fuzzable protocols. The fuzzer's deterministic case stream cycles
    through this list by index, so its membership and order are part of
    the reproducibility contract — never grow it for a protocol that is
    not meant to be fuzzed; that is what {!extras} is for. *)

val extras : entry list
(** Runnable-but-not-fuzzed entries: diagnostic protocols such as
    [faulty-probe] (a KT0 protocol that addresses by node id, violating
    the model on every seed — the deterministic failure generator the
    supervision tests and the quarantine CI demo are built on) and
    [crash-probe] (a crash-fragile binary agreement protocol that is
    correct fault-free and deterministically violates agreement or
    validity under partial round-0 delivery — the exhaustive verifier's
    demo target). {!find}/{!names} see them; the fuzzer never does. *)

val find : string -> entry option
(** Searches [all] then [extras]. *)

val names : unit -> string list

val gen_inputs : entry -> n:int -> seed:int -> int array
(** Per-seed inputs for [entry]'s {!input_kind}, drawn from a stream
    distinct from the engine's (the [Runner.materialize_inputs] xor
    tweak), so the same seed feeds the protocol the same inputs whether
    the case comes from [ftc sweep] or the serve front-end. *)
