(** What the adversary may observe about a node.

    The paper's adversary is static in *selection* but adaptive in *timing*:
    it fixes the faulty set before the run, then chooses online when each
    faulty node crashes and which of its last messages are lost. Staging the
    paper's worst case ("the minimum-rank candidate crashes in each
    iteration") requires the adversary to see protocol roles and ranks, so
    protocols publish this observation record each round. An adversary for
    a weaker model is free to ignore it. *)

type role =
  | Candidate  (** Self-selected committee member. *)
  | Referee  (** Sampled as a relay by at least one candidate. *)
  | Bystander  (** Taking no active part in the protocol. *)
  | Coordinator  (** Distinguished node in coordinator-based baselines. *)

type t = {
  role : role;
  rank : int option;
      (** The node's random rank, if the protocol's decisions depend on it
          (the election publishes its candidates' ranks only). *)
  has_decided : bool;
}

val bystander : t
(** Default observation: an undecided bystander with no rank. *)

val unranked : role -> has_decided:bool -> t
(** The observation with no rank for a role and decidedness: one shared
    record each, so publishing it allocates nothing. *)

val pp : Format.formatter -> t -> unit
