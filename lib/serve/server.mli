(** The serve front-end: one event loop multiplexing every client
    connection, the admission queue, and the worker pool's completion
    stream over [select].

    Lifecycle: bind → accept/submit/reply steady state → (drain flag
    set, by signal or programmatically) → admission stops, in-flight
    instances finish under their watchdog deadlines, delayed frames
    flush → summary.

    The exactly-one-reply ledger: every admitted submit enters a ledger
    keyed by its ticket; producing the instance's terminal reply removes
    it. Shed/Rejected submits never enter (their terminal was the
    immediate reply). A clean run ends with an empty ledger —
    [summary.lost = 0] — and that holds under every injection mix,
    because worker crashes requeue and the crash budget converts a
    hopeless instance into a [Failed] reply rather than silence. A
    reply whose connection has meanwhile gone is still {e produced}
    (ledger-removed, counted in [orphaned]); the socket write is
    best-effort by design.

    Log lines (one per significant event: accept, admit, shed, restart,
    terminal reply, drain) go through [config.log]; the final summary
    line is the machine-checkable surface CI greps. *)

type addr = Unix_sock of string | Tcp of int

type config = {
  addr : addr;
  workers : int;
  bound : int;  (** Admission bound: max open (pending + in-flight) instances. *)
  default_timeout_ms : int;  (** Per-instance watchdog deadline. *)
  grace_ms : int;  (** Drain: how long to wait for workers after quiescence. *)
  inject : Inject.t;
  recorder : Ftc_telemetry.Recorder.t;
      (** Only its metric registry is used: the server emits no events
          into the recorder's unbounded log. *)
  flight : Ftc_telemetry.Flight.t;
      (** The bounded event ring, shared with the supervisor's workers:
          the service events, plus one [Trial] per finished instance.
          [ftc serve --telemetry] writes its window on exit. *)
  blackbox : string option;
      (** Where to dump the ring. Triggers: watchdog fire, worker
          crash, SIGQUIT (via [dump_signal]), and at drain —
          ["ledger-residue"] when [lost > 0], ["clean-drain"]
          otherwise. [None] disables dumping (the ring may still
          record). *)
  log : string -> unit;
}

val default_config : addr -> config
(** 4 workers, bound 256, 10 s instance deadline, 30 s grace, no
    injection, disabled recorder, disabled flight ring, silent log. *)

type summary = {
  accepted : int;
  results : int;  (** Terminal [Result] replies produced. *)
  failed : int;  (** Terminal [Failed] replies produced. *)
  sheds : int;
  rejected : int;
  restarts : int;  (** Worker domains restarted after crashes. *)
  injected : int;  (** Injection decisions that fired, all kinds. *)
  orphaned : int;  (** Terminal replies whose connection was gone. *)
  lost : int;  (** Ledger residue at drain: accepted but never replied. *)
  peak_open : int;
  conns : int;
}

val summary_line : summary -> string
(** The one-line machine-checkable form, [serve summary: accepted=…
    … lost=…]. *)

val exit_code : summary -> int
(** [0] iff the drain was clean: [lost = 0] and the workers joined. *)

val run :
  ?drain:bool Atomic.t -> ?dump_signal:bool Atomic.t -> config -> (summary, string) result
(** Bind and serve until [drain] is set (the caller's signal handler or
    a test sets it), then drain and return the summary. Setting
    [dump_signal] (the caller's SIGQUIT handler) makes the next loop
    pass dump the black box without disturbing service. [Error] only
    for startup failures (bind/listen); once serving, every outcome is
    a summary. Ignores SIGPIPE. *)
