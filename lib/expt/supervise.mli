(** Crash-safe sweep supervision: the layer between "run this seed list"
    and the CLI.

    Three concerns, composable and all off by default:

    - {b Journal}: every completed trial is appended (and flushed) to a
      write-ahead JSONL journal ({!Ftc_journal.Journal}) keyed by a hash
      of the sweep spec. A sweep killed at any point — SIGKILL included —
      can be resumed against its journal: journaled seeds are skipped,
      missing ones run, and because each trial is a pure function of its
      seed the resumed sweep's output is bit-identical to an
      uninterrupted run.
    - {b Watchdog}: a trial that {!Runner.run}'s wall-clock watchdog
      stopped (see {!Ftc_sim.Engine.config.watchdog}) fails as
      [Watchdog_expired]; the budget itself belongs to the trial
      ({!Runner.spec.trial_timeout}), not to the supervisor.
    - {b Quarantine}: under keep-going, failed trials are recorded in a
      quarantine file (one JSON object per line, each embedding a chaos
      replay document where one exists) instead of aborting the sweep;
      [ftc replay --quarantine] re-executes them.

    The supervisor is generic in the trial payload ['a]: [ftc sweep] uses
    it with rendered per-seed reports, the expt driver with bare metric
    records ({!run_many_journaled}). *)

type failure_class = Violation | Timed_out | Watchdog_expired | Exception

val class_to_string : failure_class -> string
(** ["violation" | "timeout" | "watchdog" | "exception"] — the spelling
    used in quarantine files and reports. *)

val class_of_string : string -> failure_class option

type failure = { seed : int; class_ : failure_class; detail : string }

type 'a trial =
  | Completed of 'a
  | Failed of failure
  | Skipped
      (** Fail-fast only: a failure elsewhere aborted the sweep before
          this seed started. Never produced under keep-going. *)

type config = {
  jobs : int;
  keep_going : bool;  (** Failures quarantine instead of aborting. *)
  journal : string option;  (** Journal path to write (and read, if [resume]). *)
  resume : bool;
      (** [journal] is an existing journal from an interrupted run of the
          {e same} spec: load it, skip its seeds, append the rest. *)
  quarantine : string option;  (** Where failed trials are recorded. *)
  recorder : Ftc_telemetry.Recorder.t;
      (** Sweep telemetry sink: one [Heartbeat] event and outcome
          counter per finished trial, plus a pool monitor on the
          worker pool. Default: the disabled recorder (zero cost). *)
  flight : Ftc_telemetry.Flight.t;
      (** Flight-recorder ring: one [Trial] event per finished trial
          (outcome class), recorded from the pool workers. The driver
          dumps the ring as a black box next to the telemetry
          artifacts. Default: the disabled ring (one bool test). *)
  stop : unit -> bool;
      (** Polled before each queued trial starts; once true, remaining
          trials come back [Skipped] while running ones finish and are
          journaled — a cooperative drain, the sweep counterpart of the
          serve front-end's SIGTERM handling. The journal needs no extra
          checkpoint: every completed trial was already flushed. Default:
          never stop. *)
}

val default_config : config
(** [jobs = 1], everything else off. *)

exception Resume_error of string
(** A journal could not be used for resume: unreadable, corrupt beyond
    the torn tail, or recorded under a different spec hash. The CLI maps
    this to exit code 2 — a usage error, not a trial failure. *)

type 'a sweep = {
  trials : (int * 'a trial) list;  (** Every requested seed, in seed-list order. *)
  completed : int;  (** Trials with a payload, resumed ones included. *)
  failed : failure list;  (** In seed-list order. *)
  skipped : int;
  resumed : int;  (** Of [completed], how many came from the journal. *)
  quarantined : string option;
      (** The quarantine file written this run ([None] when no failures
          or no quarantine path configured). *)
}

val run :
  config ->
  spec_hash:string ->
  encode:(int -> 'a -> Ftc_journal.Json.t) ->
  decode:(Ftc_journal.Json.t -> (int * 'a) option) ->
  ?replay_doc:(int -> string option) ->
  run_trial:(int -> ('a, failure_class * string) result) ->
  seeds:int list ->
  unit ->
  'a sweep
(** Run every seed not already in the journal through [run_trial] on a
    pool of [config.jobs] domains.

    [encode]/[decode] fix the journal record format for payload ['a];
    a journal entry [decode] rejects is corruption ({!Resume_error}).
    [replay_doc seed] (keep-going, failed trials only) supplies the chaos
    replay text embedded in the quarantine record, so a quarantined trial
    is re-executable in isolation. An exception escaping [run_trial] is
    captured as an [Exception]-class failure, never propagated — the
    sweep itself cannot be torn down by one trial.

    Fail-fast (the default): the first failure sets an abort flag; queued
    trials come back [Skipped] (which seeds, under [jobs > 1], depends on
    timing — only keep-going sweeps promise a deterministic trial list).
    Journaled appends happen the moment a trial completes, under a lock,
    so even an aborted or killed sweep keeps every finished trial.

    @raise Resume_error per above; never raises from trial work. *)

val exit_code : ok:bool -> 'a sweep -> int
(** The process exit code a supervised sweep reports: [0] — every trial
    completed and the caller's own check [ok] passed; [3] — partial
    results (some trials failed or were skipped but at least one
    completed); [1] — nothing completed, or [ok] was false on a complete
    sweep. *)

val classify_outcome : Runner.outcome -> (failure_class * string) option
(** The standard failure taxonomy over an engine outcome: model
    violations ([Violation], with every violation spelled out), then
    [Watchdog_expired], then [Timed_out]; [None] for a clean outcome. *)

(** {1 The expt-driver journal}

    [ftc expt] runs {e many} sweeps (one per experiment point) in one
    process, so they share one journal, with records distinguished by a
    caller-chosen key string. *)

type shared

val open_shared : path:string -> resume:bool -> spec_hash:string -> shared
(** Create ([resume = false]) or load-and-reopen ([resume = true]) a
    shared journal. @raise Resume_error as {!run}. *)

val close_shared : shared -> unit

val run_many_journaled :
  jobs:int ->
  journal:shared option ->
  key:string ->
  ok:(Runner.outcome -> bool) ->
  Runner.spec ->
  seeds:int list ->
  Runner.trial_stats list
(** The journaled equivalent of
    [List.map (Runner.stats_of ~ok) (Runner.run_many_par ~jobs spec ~seeds)]:
    seeds whose [(key, seed)] record is already journaled are not re-run —
    their stats come from the journal — and every freshly completed trial
    is appended before anything can raise. Violating seeds raise the same
    {!Runner.Model_violation} (first in seed order) the plain path would,
    but only after the clean trials of the batch were journaled. With
    [journal = None] this {e is} the plain path. Stats are returned in
    seed order, so aggregates are bit-identical however the run was
    interrupted and resumed. *)
