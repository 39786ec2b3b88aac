(** A fixed-size pool of OCaml 5 domains behind a shared work queue.

    The pool exists to parallelise {e independent} trials — every job is a
    closure with no ordering constraints against the others — while keeping
    results deterministic: {!map} returns its results in submission order,
    whatever order the workers finished in, so a parallel map over
    pure-per-item work is observationally identical to [List.map].

    No dependencies beyond the stdlib: workers park on a [Condition]
    until work arrives or the pool shuts down. Their domains outlive the
    pool: after {!shutdown} they wait for the next pool's workers, and
    new domains are spawned only when no parked one is free. *)

type t

type monitor = {
  now_ns : unit -> int64;  (** The monitor's clock; called off the pool lock. *)
  enqueued : depth:int -> unit;
      (** A job was queued; [depth] is the queue length just after. *)
  job_done : worker:int -> enqueued_ns:int64 -> started_ns:int64 -> finished_ns:int64 -> unit;
      (** A worker finished a job: queue wait is [started - enqueued],
          busy time [finished - started]. *)
}
(** Telemetry hooks. All callbacks run outside the pool lock (so they
    can never deadlock the pool) on whichever domain did the work; they
    must be domain-safe and must not raise. With no monitor installed
    the pool never reads a clock. *)

val create : ?monitor:monitor -> jobs:int -> unit -> t
(** Start [jobs] workers, each on its own domain (so up to [jobs]
    closures run at once; the submitting domain only coordinates).
    Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one fire-and-forget closure. The closure should not raise —
    {!map} and {!map_results} wrap user work in their own handlers. A raw
    [submit] job that does raise is not silently swallowed: the exception
    is counted (see {!dropped_exceptions}) and forwarded to the pool's
    exception sink (see {!set_exception_sink}), and the worker keeps
    going. Raises [Invalid_argument] on a pool that was {!shutdown}. *)

val dropped_exceptions : t -> int
(** How many exceptions have escaped raw {!submit} jobs so far. A
    non-zero value after a run means some job crashed without anyone
    observing it — the supervisor surfaces this as a warning. *)

val set_exception_sink : t -> (exn -> Printexc.raw_backtrace -> unit) -> unit
(** Install a callback invoked (from the worker domain) for every
    exception escaping a raw {!submit} job, replacing the previous sink.
    The default sink does nothing. The sink itself must not raise; if it
    does, that exception is discarded. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] runs [f] on every element of [xs] across the pool's
    workers and returns the results {e in submission order}: slot [i] of
    the result always holds [f (List.nth xs i)].

    Every element is attempted at most once; if some [f x] raises, the
    first exception (in completion time) wins, jobs that have not started
    yet are cancelled (their [f] never runs), already-running jobs finish,
    and the exception is re-raised in the caller with its original
    backtrace. The pool survives a raising map and can be reused. *)

val shutdown : t -> unit
(** Let workers drain the queue, then wait for every worker to leave
    the pool, re-raising what one died of (a monitor callback that
    raised). Idempotent. After shutdown, {!submit} and {!map} raise
    [Invalid_argument]. *)

val with_pool : ?monitor:monitor -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down on
    every exit path. *)

val run_map : ?monitor:monitor -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [with_pool ~jobs (fun p -> map p f xs)], except
    that [jobs = 1] short-circuits to a plain sequential [List.map] — no
    domain is spawned, so single-job callers pay nothing (and the
    monitor, if any, is not consulted). *)

val map_results : t -> ('a -> 'b) -> 'a list -> ('b, exn * Printexc.raw_backtrace) result list
(** Per-slot outcome capture: like {!map} but a raising [f x] fails only
    its own slot ([Error (e, bt)]) — nothing is cancelled, every element
    runs, and the call never raises from user work. Slot order is
    submission order, exactly as for {!map}. This is the keep-going
    primitive: the sweep supervisor uses it to quarantine failed trials
    while the rest of the sweep completes. *)

val run_map_results :
  ?monitor:monitor ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** One-shot {!map_results}, with the same [jobs = 1] sequential
    short-circuit as {!run_map}. *)
