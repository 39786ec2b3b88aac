(** Execution traces: a sink the engine emits every send, loss and crash
    into, one event at a time.

    A trace runs in one of two modes:

    - a {e tally} keeps O(1) state — the total event count and a count per
      event kind (sends, bits, undelivered sends, crashes, link losses,
      queue drops, ECN marks, unroutable sends). The chaos
      ["trace-metrics"] oracle reads it: the counts are summed at the
      engine's emission sites, apart from {!Metrics}, so they are a
      second, independent tally of the run's message complexity. A
      tallied run allocates nothing per event;
    - a {e log} keeps the tally plus every event in emission order, stored
      as growable int columns (kind, round, src, dst, bits). The
      lower-bound proofs of the paper (Theorems 4.2 and 5.2) reason about
      the {e communication graph} of an execution — who sent to whom, and
      the "influence clouds" reachable from initiator nodes — so
      [Ftc_analysis.Influence] reads the sequence back with {!iter} or
      {!fold}.

    A message lost on a live link produces two events: a [Send] with
    [delivered = false] (it was sent and counts in the paper's message
    complexity) and a [Link_lost] marker attributing the loss to the
    {!Link} model rather than a crash — so send/drop counts from the trace
    still reconcile exactly with {!Metrics}. A message dropped by a
    bounded ingress queue ({!Queue_model}) is recorded the same way, with
    a [Queue_dropped] marker in place of [Link_lost]. *)

type mode =
  | Off  (** No trace: the engine's per-message trace calls are skipped. *)
  | Tally  (** Counts only; what the chaos oracles need. *)
  | Log  (** Counts plus the ordered events; what sequence readers need. *)

type event =
  | Send of { round : int; src : int; dst : int; bits : int; delivered : bool }
  | Crash of { round : int; node : int }
  | Link_lost of { round : int; src : int; dst : int; bits : int }
      (** Emitted alongside the undelivered [Send] it explains. *)
  | Queue_dropped of { round : int; src : int; dst : int; bits : int }
      (** Dropped by the destination's bounded ingress queue
          ({!Queue_model}); emitted alongside the undelivered [Send] it
          explains, like [Link_lost]. *)
  | Ecn_marked of { round : int; src : int; dst : int }
      (** The message was delivered carrying the ECN congestion bit;
          emitted alongside its delivered [Send]. *)
  | Unroutable of { round : int; node : int }
      (** A [Fresh_port] send with no unknown peer left; never sent. *)

type t
(** A tally or a log. Each trace owns its storage: nothing is shared
    between traces or domains. *)

val create : mode -> t option
(** A fresh, empty trace in the given mode; [None] for [Off]. *)

(** {2 Emission}

    One call per event, with unboxed arguments. *)

val send : t -> round:int -> src:int -> dst:int -> bits:int -> delivered:bool -> unit
val crash : t -> round:int -> node:int -> unit
val link_lost : t -> round:int -> src:int -> dst:int -> bits:int -> unit
val queue_dropped : t -> round:int -> src:int -> dst:int -> bits:int -> unit
val ecn_marked : t -> round:int -> src:int -> dst:int -> unit
val unroutable : t -> round:int -> node:int -> unit

val add : t -> event -> unit
(** [add t e] emits [e] through the matching call above. *)

(** {2 Reading} *)

type counts = {
  mutable sends : int;  (** [Send] events. *)
  mutable bits : int;  (** Sum of the [Send] events' bits. *)
  mutable undelivered : int;  (** [Send] events with [delivered = false]. *)
  mutable crashes : int;
  mutable link_lost : int;
  mutable queue_dropped : int;
  mutable ecn_marked : int;
  mutable unroutable : int;
}
(** The fields are mutable because a trace keeps its live tally in this
    record; what {!counts} returns is a copy. *)

val counts : t -> counts
(** A snapshot of the tally so far; kept in both modes. Later events do
    not change it. *)

val length : t -> int
(** Number of events emitted, in both modes. *)

val is_log : t -> bool

val iter : (event -> unit) -> t -> unit
(** The logged events in emission order. Raises [Invalid_argument] on a
    tally, which keeps no events. *)

val fold : ('a -> event -> 'a) -> 'a -> t -> 'a
(** As {!iter}, threading an accumulator. *)

val pp_event : Format.formatter -> event -> unit
