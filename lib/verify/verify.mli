(** The bounded exhaustive explorer behind [ftc verify].

    Streams every canonical schedule of a {!Space.t} (BFS order, so the
    first violation met is minimal by construction), materialises each
    as a chaos case, runs it through the engine and judges it with
    {!Ftc_chaos.Oracle.check} — all deterministically, so two runs of
    the same config produce byte-identical reports whatever [--jobs]
    says.

    Execution is chunked: states are cut into fixed-size chunks
    (independent of the worker count) that the workers of
    {!Ftc_parallel.Pool.run_workers} claim, judge and cut at their first
    violation; the calling domain is worker 0 and merges finished chunks
    in order, writing one JSONL record per chunk through the
    {!Ftc_journal} write-ahead log. A SIGKILLed run resumed
    with the same config replays the journaled chunk prefix (validated
    by spec hash and consecutive chunk ids) without re-executing it and
    continues from the first unexplored state — the resumed report, and
    hence the CLI's stdout, is byte-identical to an uninterrupted run.

    Exit-code contract (the sweep supervisor's): 0 = explored the whole
    space, no violations; 1 = violation found (a minimal counterexample
    exists); 3 = partial clean sweep ([--max-states] cap hit first);
    2 (CLI side, from [Error _]) = usage or resume mismatch. *)

type config = {
  protocol : string;
  n : int;
  alpha : float;
  horizon : int;  (** 0 = the protocol's full round calendar. *)
  keep_prefix_max : int;
  grid : bool;
  seeds_per_state : int;
      (** Coin assignments tried per canonical state; any failing seed
          makes the state a violation. *)
  base_seed : int;
  reduction : bool;  (** false = enumerate raw label vectors instead. *)
  problem_oracles : bool;
      (** false = keep only the accounting oracles (model, congest,
          termination, trace-metrics), so w.h.p. election/agreement
          findings do not stop an exhaustive model sweep. *)
  max_states : int option;
  keep_going : bool;  (** Collect every violation instead of stopping. *)
  jobs : int;
}

val default_config : protocol:string -> config
(** n = 4, alpha = 0.5, full horizon, keep-prefix-max 2, pure env,
    1 seed/state, base seed 1, reduction on, every oracle, no cap,
    stop at first violation, jobs 1. *)

type violation = {
  index : int;  (** BFS position of the violating state. *)
  state : string;  (** {!Space.encode} of the state. *)
  seed_index : int;
  case : Ftc_chaos.Case.t;
  oracles : string list;  (** Distinct violated oracle ids, check order. *)
  details : string list;  (** ["oracle: detail"] lines. *)
}

type report = {
  config : config;
  horizon : int;  (** Resolved (calendar rounds when config said 0). *)
  rules : int;
  envs : int;
  total_states : int;
  total_schedules : int;
  planned_states : int;  (** [min total_states max_states]. *)
  explored_states : int;
  covered_schedules : int;  (** Sum of explored orbit sizes. *)
  violations : violation list;  (** In BFS order. *)
  resumed_states : int;  (** Restored from the journal, not re-run. *)
  complete : bool;  (** Every state of the space was explored. *)
}

val run :
  ?recorder:Ftc_telemetry.Recorder.t ->
  ?journal:string ->
  ?resume:bool ->
  ?log:(string -> unit) ->
  config ->
  (report, string) result
(** Explore. [journal] arms per-chunk checkpointing; [resume] (requires
    [journal]) loads the journaled prefix first and errors on a spec
    hash mismatch or a corrupt record sequence. [log] receives progress
    lines (stderr material — never part of the deterministic stdout).
    The recorder gets states/sec heartbeats, an [ftc_verify_coverage_permille]
    gauge and violation/state counters; individual case runs are not
    instrumented (a space has hundreds of thousands). *)

val exit_code : report -> int
(** 1 if violations, else 0 if complete, else 3. *)

val summary : report -> string
(** The pinned human summary (states, reduction factor, coverage,
    violations, verdict). Deterministic; golden-tested. *)
