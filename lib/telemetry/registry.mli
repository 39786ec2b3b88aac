(** Mutex-guarded registry of named metrics.

    Three kinds: monotonically increasing counters, last/peak-value
    gauges, and log-scale {!Hist} histograms. A metric springs into
    existence on first use and keeps the kind of that first operation;
    mixing kinds under one name raises [Invalid_argument].

    The {!disabled} registry makes every recording operation a single
    immediate bool test — hot paths keep their instrumentation calls
    unconditionally and pay (near) nothing when telemetry is off.
    All operations are domain-safe. *)

type value = Counter of int | Gauge of int | Hist of Hist.t

type t

val create : unit -> t
(** A fresh enabled registry. *)

val disabled : t
(** The shared no-op registry: recording is a bool test, {!snapshot} is
    always empty. *)

val enabled : t -> bool

val incr : t -> string -> int -> unit
(** Add to a counter (creating it at the given value). *)

val set_gauge : t -> string -> int -> unit
(** Set a gauge. *)

val gauge_max : t -> string -> int -> unit
(** Raise a gauge to [v] if [v] is larger (peak tracking). *)

val observe : t -> string -> int -> unit
(** Record one sample into a histogram. *)

val snapshot : t -> (string * value) list
(** Point-in-time copy of every metric, sorted by name (deterministic
    given deterministic values). *)
