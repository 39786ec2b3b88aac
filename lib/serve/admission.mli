(** Bounded admission control: the queue between the socket front-end
    and the worker pool, and the reason the server's memory is bounded
    by configuration instead of by load.

    The bound covers {e open} instances — pending (admitted, waiting
    for a worker) plus in-flight (being executed). A submit that would
    push the open count past the bound is shed with a retry-after hint
    derived from the measured service rate: [open * ewma_ms / workers],
    i.e. roughly how long the backlog ahead of the caller will take to
    clear. Shedding is the only overload response; nothing queues
    beyond the bound, ever.

    State machine: [Accepting] → ({!drain}) → [Draining] → (queue
    empty, {!take} starts returning [None]) → workers exit. Draining
    stops admission ([Shed] with [draining = true]) but keeps serving
    everything already admitted — an accepted instance is a promise.

    Crash-restart support: {!requeue} returns an in-flight instance
    (its worker died) to the {e front} of the pending queue. It moves
    the instance from in-flight back to pending, so the open count —
    and therefore the bound — is unaffected: a crash never creates
    admission capacity and never exceeds it.

    All operations are domain-safe; {!take} blocks on a condition
    variable until work arrives or the queue drains out. *)

type 'a t

val create : bound:int -> workers:int -> unit -> 'a t
(** Raises [Invalid_argument] when [bound < 1] or [workers < 1]. *)

type admit_outcome =
  | Admitted
  | Shed_full of int  (** Bound hit; the retry-after hint, ms. *)
  | Shed_draining of int  (** Admission stopped; hint covers the backlog. *)

val admit : ?on_admit:(unit -> unit) -> 'a t -> 'a -> admit_outcome
(** [on_admit] runs once the submit is admitted but before any {!take}
    can see it, so whatever it records precedes the worker's view of
    the instance. It does not run for a shed submit. *)

val take : 'a t -> 'a option
(** Next pending instance, front first; blocks while the queue is empty
    and accepting. [None] once draining and empty — the worker's exit
    signal. Taking moves the instance from pending to in-flight. *)

val try_take : 'a t -> 'a option
(** Non-blocking {!take}: [None] when nothing is pending (does not
    distinguish empty from drained). *)

val complete : 'a t -> service_ms:float -> unit
(** The instance a worker took has received its terminal reply: drop it
    from in-flight and feed the service-time EWMA the retry-after hints
    are computed from. *)

val requeue : 'a t -> 'a -> unit
(** Return a crashed worker's in-flight instance to the front of the
    pending queue (see above: bound-neutral). *)

val drain : 'a t -> unit
(** Stop admission and wake every blocked {!take}. Idempotent. *)

val draining : 'a t -> bool

val pending : 'a t -> int

val open_count : 'a t -> int
(** Pending + in-flight. Invariant: never exceeds [bound]. *)

val peak_open : 'a t -> int

val bound : 'a t -> int
(** The configured open-instance bound (constant). *)

val ewma_ms : 'a t -> float
(** The current service-time EWMA the retry-after hints are computed
    from; exposed for the introspection plane. *)

val quiescent : 'a t -> bool
(** Draining, and every admitted instance has completed. *)

val retry_after_ms : 'a t -> int
(** The current backlog-clearance hint (what a shed reply would say). *)
