(** The worker pool behind the serve front-end: restartable domains
    pulling instances off the admission queue, each instance a chaos
    case run under a per-instance watchdog deadline.

    Supervision tree:

    {v
    server loop (domain 0)
      └─ supervisor
           ├─ worker 0 (Respawn)  — take / run / complete, forever
           ├─ ...
           └─ worker W-1
    v}

    Failure handling, bottom-up:

    - {e stuck instance} — the watchdog deadline fires at a round
      boundary; the instance completes with [Watchdog_expired]. A stuck
      instance never wedges its worker for longer than its deadline.
    - {e injected instance kill} — the watchdog closure trips the kill
      flag instead; completes with [Killed].
    - {e worker crash} (injected [Kill_worker], or a genuine escaped
      exception) — the domain dies. {!tick} reaps it, requeues its
      in-flight instance at the front of the queue (bound-neutral, see
      {!Admission.requeue}), and respawns the worker. An instance that
      crashes its worker {!max_attempts} times completes with
      [Crash_budget_exhausted] instead of being requeued again.

    Every instance a worker takes therefore produces exactly one
    {!completion} — the half of the exactly-one-reply oracle that lives
    below the socket layer. *)

type instance = {
  ticket : int;  (** Server-unique; the reply ledger key. *)
  conn : int;  (** Owning connection, for reply routing. *)
  submit : Wire.submit;
  mutable attempts : int;  (** Times taken by a worker, so far. *)
  enqueued_at : float;  (** [Unix.gettimeofday] at admission. *)
}

type outcome =
  | Finished of {
      ok : bool;
      detail : string;
      rounds : int;
      msgs : int;
      bits : int;
    }
  | Watchdog_expired
  | Killed
  | Crash_budget_exhausted of string
  | Exn of string

type completion = { inst : instance; outcome : outcome; service_ms : float }

val case_of_submit : Wire.submit -> Ftc_chaos.Case.t
(** The chaos case a worker runs for a submit: no crash plan, the named
    adversary (["none"] = none), inputs drawn from the seed exactly as
    [ftc sweep] draws them. Admission validates this very case. *)

val max_attempts : int
(** Worker crashes an instance may survive before it fails (3). *)

type t

val create :
  ?flight:Ftc_telemetry.Flight.t ->
  ?counters:Inject.Counters.t ->
  workers:int ->
  queue:instance Admission.t ->
  inject:Inject.t ->
  default_timeout_ms:int ->
  notify:(unit -> unit) ->
  unit ->
  t
(** Spawns [workers] supervised domains immediately. [notify] is called
    after each completion is queued — the server's self-pipe kick; it
    runs on the worker domain and must be async-signal-ish (write to a
    pipe, not take the server's locks). [flight] (default disabled)
    receives started/round/requeue/reap/respawn events; [counters]
    (default private) is bumped when a kill fault fires — pass the
    server's so frame faults and kill faults share one tally. *)

val completions : t -> completion list
(** Drain the completion queue, oldest first. *)

val tick : t -> int
(** Reap crashed workers: requeue or fail their in-flight instances and
    respawn the domain. Returns the number of workers restarted by this
    call. Cheap when nothing died; the server calls it every loop. *)

val restarts : t -> int
(** Total workers restarted over the supervisor's lifetime. *)

val views : t -> Wire.worker_view list
(** Live per-worker state for the introspection plane, slot order.
    Safe from the event-loop domain while workers run: busy/ticket come
    from the worker's published atomic, round from its watchdog-poll
    atomic. *)

val workers_alive : t -> int

val join : t -> grace_ms:int -> bool
(** Drain-time shutdown: keep {!tick}ing until every worker has exited
    (the admission queue must already be draining), at most [grace_ms].
    [true] on a clean join; [false] if the grace expired with workers
    still running (their instances' watchdog deadlines will still bound
    them, but the caller stops waiting). *)
