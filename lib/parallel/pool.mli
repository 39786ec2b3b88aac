(** Run work on several OCaml 5 domains, with the calling domain as one
    of the workers.

    The pool exists to parallelise {e independent} work — every item is
    a call with no ordering constraints against the others — while
    keeping results deterministic: {!run_map} returns its results in
    input order, whatever order the workers finished in, so a parallel
    map over pure-per-item work is observationally identical to
    [List.map].

    There is no queue. {!run_workers} runs worker 0 on the calling
    domain and workers [1 … jobs-1] on other domains, and the maps claim
    items through an atomic cursor. No domain sits blocked while the
    others work: under OCaml 5 every minor collection stops all domains,
    and one parked in [Condition.wait] has to be woken for it, so a
    caller that only coordinated made every collection slower. The
    caller blocks once, at the end, until the other workers return.

    No dependencies beyond the stdlib. The other workers' domains
    outlive the call: between calls they park on a [Condition], and new
    domains are spawned only when no parked one is free. *)

type monitor = {
  now_ns : unit -> int64;  (** The monitor's clock. *)
  enqueued : depth:int -> unit;
      (** A map started; [depth] is the number of items it holds. *)
  job_done : worker:int -> enqueued_ns:int64 -> started_ns:int64 -> finished_ns:int64 -> unit;
      (** A worker finished an item: queue wait is [started - enqueued]
          (map start to claim), busy time [finished - started]. [worker]
          is 0 for the calling domain. *)
}
(** Telemetry hooks. Callbacks run on whichever domain did the work;
    they must be domain-safe. One that raises fails the call like a
    raising item. With no monitor installed the pool never reads a
    clock. *)

val run_workers : jobs:int -> (int -> unit) -> unit
(** [run_workers ~jobs f] runs [f 0] on the calling domain and
    [f 1 … f (jobs-1)] each on its own parked or freshly spawned domain,
    and returns only after every one of them has returned. If some [f w]
    raises, the first exception (in completion time) is re-raised with
    its original backtrace, once all have returned; the others are not
    interrupted, so [f] decides when to stop. Raises [Invalid_argument]
    when [jobs < 1]. *)

val run_map : ?monitor:monitor -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [run_map ~jobs f xs] runs [f] on every element of [xs] across
    [jobs] workers ({!run_workers}) and returns the results {e in input
    order}: slot [i] of the result always holds [f (List.nth xs i)].

    Every element is attempted at most once; if some [f x] raises, no
    further element is claimed, already-running ones finish, and the
    first exception (in completion time) is re-raised with its original
    backtrace. [jobs = 1] is a plain [List.map]: no domain is used and
    the monitor is not consulted. Raises [Invalid_argument] when
    [jobs < 1]. *)

val run_map_results :
  ?monitor:monitor ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, exn * Printexc.raw_backtrace) result list
(** Per-slot outcome capture: like {!run_map} but a raising [f x] fails
    only its own slot ([Error (e, bt)]) — nothing is cancelled, every
    element runs, and the call never raises from user work. Slot order
    is input order, exactly as for {!run_map}. This is the keep-going
    primitive. *)
