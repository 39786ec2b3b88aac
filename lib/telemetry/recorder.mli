(** The central telemetry handle for runs: the full event log plus a
    {!Registry}.

    A recorder is either live ({!create}) or the shared {!disabled}
    no-op. Code under instrumentation takes the recorder unconditionally
    and calls {!emit}/{!registry} operations; with the disabled recorder
    each call is one immediate bool test, so tier-1 hot paths stay at
    near-zero cost and bit-identical output. All operations are
    domain-safe — trials running on pool workers share one recorder.

    The log keeps every event: it suits runs, which end. Services keep
    a bounded {!Flight} ring of the same events instead.

    Timestamps are nanoseconds relative to the recorder's creation
    (wall clock): small, positive, and directly usable as Chrome-trace
    [ts] offsets. *)

include module type of struct
  include Event.Types
end
(** The {!Event} vocabulary: [Recorder.Span], [Recorder.Trial], ... *)

type t

val create : unit -> t
val disabled : t
val enabled : t -> bool
val registry : t -> Registry.t

val now_ns : t -> int64
(** Nanoseconds since the recorder was created; [0L] when disabled (the
    clock is never read). *)

val emit : t -> event -> unit
(** Stamp the event into the log. *)

val events : t -> event list
(** Events in emission order. With multiple domains emitting, the
    interleaving is scheduling-dependent — exporters must not rely on
    it (the summary sorts; the trace orders by timestamp). *)

val log : t -> Event.file
(** The whole log as an event file (reason ["run"], capacity [0]), with
    a snapshot of the registry. *)
