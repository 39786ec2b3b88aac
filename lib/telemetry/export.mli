(** Exporters for an {!Event.file}, all built on the journal's JSON
    codec ({!Ftc_journal.Json}):

    - [events.jsonl] — the event file itself ({!Event.write}). The
      source of truth; the other two artifacts can be regenerated from
      it ([ftc trace export]).
    - [trace.json] — Chrome trace-event JSON (Perfetto-loadable): one
      track per trial/worker, complete ([ph = "X"]) slices for trials,
      phase spans and pool jobs, counter events for heartbeats. The
      ring's service events are left to [events.jsonl].
    - [metrics.prom] — Prometheus-style text snapshot; histograms as
      cumulative power-of-two [le] buckets. *)

val chrome_trace : Event.entry list -> Ftc_journal.Json.t
val prometheus : (string * Registry.value) list -> string

val events_file : string
val trace_file : string
val prom_file : string

val write_dir : dir:string -> Event.file -> unit
(** Write all three artifacts into [dir] (created if missing). *)

val summary : Event.file -> string
(** Human-readable per-(protocol, phase) cost table — spans, rounds,
    msgs, bits, wall-clock — plus trial totals, the window when the
    store dropped events, and histogram digests. Rows are sorted
    (protocol, calendar position), so the output is deterministic up to
    the wall-clock columns. *)

val validate_trace_json : string -> (int, string) result
(** Check a [trace.json] body: parses, has a [traceEvents] array, every
    event carries [ph]/[ts] (and [dur] for complete events). Returns the
    event count. *)

val validate_prometheus : string -> (int, string) result
(** Check a [metrics.prom] body: non-empty, every sample line ends in a
    number. Returns the sample count. *)
