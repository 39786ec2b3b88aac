(** Flight recorder: a fixed-capacity, allocation-bounded ring buffer of
    {!Event}s — the "black box" of [ftc serve], and its [--telemetry]
    store.

    Like {!Recorder}, a flight ring is either live ({!create}) or the
    shared {!disabled} no-op: instrumentation calls {!record}
    unconditionally and pays one bool test when the ring is off. A live
    ring preallocates its slot arrays at creation and never grows — under
    sustained load old events are overwritten, and the global event count
    keeps increasing so every surviving entry carries a stable, strictly
    monotone sequence number. [dropped] says how many events were
    overwritten before the oldest survivor.

    {!dump} writes the surviving window as an {!Event} file via an
    atomic rename; {!load} reads one back; {!timeline} filters a window
    down to the causal history of a single ticket. All recording
    operations are domain-safe. *)

include module type of struct
  include Event.Types
end
(** The {!Event} vocabulary: [Flight.Admitted], [Flight.Started], ... *)

type ev = event

type t

val create : capacity:int -> t
(** A live ring with [capacity] slots (clamped to at least 1).
    Timestamps are nanoseconds since creation. *)

val disabled : t
(** Shared no-op ring: {!record} is one bool test, {!snapshot} is []. *)

val enabled : t -> bool
val capacity : t -> int

val now_ns : t -> int64
(** Nanoseconds since the ring was created, on the clock its entries
    use; [0L] when disabled. *)

val record : t -> ev -> unit

val total : t -> int
(** Events recorded over the ring's lifetime (including overwritten). *)

val dropped : t -> int
(** [max 0 (total - capacity)]: events overwritten and no longer in the
    window. *)

val snapshot : t -> entry list
(** The surviving window, oldest first. Sequence numbers are global:
    the first surviving entry has [seq = dropped t]. *)

(** {1 Black-box files} *)

type dump = Event.file

val window : t -> reason:string -> dump
(** The surviving window and its counts, read at one instant, with no
    metrics. *)

val dump : t -> path:string -> reason:string -> unit
(** Write {!window} atomically. A disabled ring writes nothing.
    [reason] is one of the dump triggers (e.g. ["watchdog"],
    ["worker-crash"], ["ledger-residue"], ["sigquit"],
    ["clean-drain"]). *)

val load : path:string -> (dump, string) result
(** {!Event.load}. *)

val timeline : entry list -> ticket:int -> entry list
(** Entries attributable to [ticket], in sequence order. *)
