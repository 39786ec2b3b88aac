(** The one telemetry event vocabulary, its JSON codec and its file
    format.

    Two stores hold these events. {!Recorder} keeps the full log of a
    run (a sweep, an experiment, a verifier pass): phase spans, trials,
    pool jobs and progress heartbeats. {!Flight} keeps a bounded ring
    for services: what happened to each served instance, plus its
    [Trial]. Both stamp each event with a sequence number and a time
    into an {!entry}, and both write the same file: [events.jsonl]
    under [--telemetry], and the black box under [ftc serve
    --blackbox].

    File layout: one header line
    [{"ftc_events":2,"reason":..,"capacity":..,"recorded":..,"dropped":..,"metrics":[..]}],
    then one [{"seq":..,"at_ns":..,"event":{"ev":<kind>,..}}] line per
    entry, oldest first. *)

(** The types, in a module of their own so {!Recorder} and {!Flight}
    can re-export the constructors with one [include]. *)
module Types : sig
  type event =
    | Span of Span.t  (** One protocol phase of one trial. *)
    | Trial of {
        track : string;
        protocol : string;
        seed : int;
        ok : bool;
        msgs : int;
        bits : int;
        rounds : int;
        start_ns : int64;
        dur_ns : int64;
      }  (** Whole-trial summary; its spans nest under it on the same track. *)
    | Job of { pool : string; worker : int; start_ns : int64; dur_ns : int64; wait_ns : int64 }
        (** One pool job as executed by a worker domain. *)
    | Heartbeat of {
        at_ns : int64;
        completed : int;
        failed : int;
        total : int;
        verdict : (int * string) option;
      }
        (** Progress tick. A sweep's tick names the trial that just
            finished: [Some (seed, class)], where class is
            ["completed"], a failure class or ["skipped"]. The
            verifier's tick has [None]. *)
    | Admitted of { ticket : int; id : string; protocol : string; n : int; seed : int }
        (** Admission accepted a submit under [ticket]. Recorded before
            any worker can take the instance. *)
    | Shed of { id : string; hint_ms : int; draining : bool }
        (** Admission refused a submit (bound hit, or draining) with a
            retry-after hint. *)
    | Started of { ticket : int; attempt : int; worker : int }
        (** A worker domain began executing an attempt of the ticket. *)
    | Round of { ticket : int; round : int }
        (** Watchdog-poll heartbeat: the instance reached engine round
            [round] (counted in watchdog polls). *)
    | Decided of { ticket : int; class_ : string; ok : bool }
        (** Terminal reply sent for the ticket. [class_] is ["ok"] for a
            result or the failure class ([Wire.failed_*]). *)
    | Requeued of { ticket : int; attempt : int }
        (** The ticket went back to the front of the queue after a
            worker crash; [attempt] is the count already consumed. *)
    | Reaped of { worker : int; ticket : int option; detail : string }
        (** A dead worker domain was observed and collected. *)
    | Respawned of { worker : int; ticket : int option }
        (** A replacement domain started in the same slot. *)
    | Budget_exhausted of { ticket : int }  (** The ticket used its whole crash budget. *)
    | Injected of { kind : string; ticket : int }
        (** A fault-injection decision fired ([Inject] kind name). *)
    | Note of string  (** Free-form lifecycle marker. *)

  type entry = { seq : int; at_ns : int64; ev : event }
  (** An event as a store holds it: [seq] counts the store's events
      from 0, [at_ns] is nanoseconds since the store was created. *)
end

include module type of struct
  include Types
end

val kind : event -> string
(** The ["ev"] discriminator of the JSON form, e.g. ["span"] or
    ["budget-exhausted"]. *)

val pp : event -> string
(** Human one-line rendering (used by [ftc blackbox timeline]). *)

val ticket_of : event -> int option
(** The served ticket an event belongs to, when it has one. *)

val to_json : event -> Ftc_journal.Json.t
val of_json : Ftc_journal.Json.t -> (event, string) result

(** {1 Event files} *)

val file_version : int
(** Stamped in the header; bump on any schema change. *)

type file = {
  reason : string;
      (** Why the file was written: ["run"] for a recorder log, or a
          black-box trigger such as ["watchdog"] or ["clean-drain"]. *)
  capacity_ : int;  (** The ring's capacity; [0] for an unbounded log. *)
  recorded : int;  (** Events the store took over its lifetime. *)
  dropped_ : int;  (** Events overwritten before the oldest entry. *)
  metrics : (string * Registry.value) list;  (** A registry snapshot, or []. *)
  entries : entry list;  (** Oldest first. *)
}

val write : path:string -> file -> unit
(** Write atomically (temporary file, then rename). *)

val load : path:string -> (file, string) result
(** Fails on an unreadable file, a missing header, an unknown version
    or a malformed line. *)

val check : file -> (unit, string) result
(** The entry count matches [recorded - dropped_] and the sequence
    numbers run without a gap from [dropped_]. Timestamps need not be
    monotone: producer domains race for slots. *)
