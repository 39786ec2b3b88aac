(** Experiment definitions: one value of type {!t} per table/figure of
    DESIGN.md's experiment index. *)

type scale =
  | Quick  (** Small n, few trials — smoke-check the shapes in seconds. *)
  | Full  (** The sizes and trial counts used for EXPERIMENTS.md. *)

type ctx = {
  scale : scale;
  base_seed : int;
  jobs : int;
      (** Worker domains for the trial loops ({!Runner.run_many_par});
          1 = sequential. Outcomes are identical at any value. *)
  journal : Supervise.shared option;
      (** When set, experiments journal each completed trial through
          {!Supervise.run_many_journaled} and skip trials already
          journaled — crash-safe resume for [ftc expt]. [None] runs
          exactly as before. Experiments that treat violations as data
          (lossy raw, Byzantine probe) ignore it. *)
  queue : Ftc_sim.Queue_model.config option;
      (** [ftc expt --queue-cap/--queue-model] override, honoured by the
          queue-aware experiments (F14 pins its capacity sweep to this
          single point). Other experiments ignore it; [None] leaves each
          experiment's own grid in force. *)
  fast_engine : bool;
      (** [ftc expt --engine fast]: add F1/F2's extended decades up to
          n = 10^6 at full scale. *)
}

type t = {
  id : string;  (** e.g. "T1", "F9"; stable, used by the CLI and bench. *)
  title : string;
  paper : string;  (** The paper artefact this reproduces. *)
  run : ctx -> string;  (** Produces the printable report. *)
}

val trials : ctx -> quick:int -> full:int -> int
val section : string -> string -> string -> string
(** [section id title body] formats a report block. *)
