module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module Params = Ftc_core.Params
module Rng = Ftc_rng.Rng
module Dist = Ftc_rng.Dist

type msg =
  | Bid of { rank : int }  (* candidate -> referee *)
  | Min of { rank : int }  (* referee -> candidate: smallest rank seen *)

type referee = { mutable cand_ports : int list; mutable min_rank : int }

type state = {
  rank : int;
  is_candidate : bool;
  mutable referee_ports : int list;
  mutable referee : referee option;
  mutable win : bool;
  mutable decision : Decision.t;
}

module Make (C : sig
  val params : Params.t
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = "kutten-leader-election"
  let knowledge = `KT0

  let msg_bits ~n = function Bid _ | Min _ -> Congest.tag_bits + Congest.rank_bits ~n

  (* Announce, reply, decide: one round-trip. *)
  let max_rounds ~n:_ ~alpha:_ = 4

  let phases ~n:_ ~alpha:_ =
    [ ("referee-selection", 0); ("referee-reply", 1); ("decision", 2) ]

  let init (ctx : Protocol.ctx) =
    let rank = Rng.int_in ctx.rng 1 (Params.rank_bound params ~n:ctx.n) in
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:1. in
    let is_candidate = Dist.bernoulli ctx.rng p in
    {
      rank;
      is_candidate;
      referee_ports = [];
      referee = None;
      win = is_candidate;
      decision = (if is_candidate then Decision.Undecided else Decision.Not_elected);
    }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      match Protocol.Inbox.payload inbox k with
      | Bid { rank } ->
          let r =
            match st.referee with
            | Some r -> r
            | None ->
                let r = { cand_ports = []; min_rank = max_int } in
                st.referee <- Some r;
                r
          in
          r.cand_ports <- Protocol.Inbox.port inbox k :: r.cand_ports;
          if rank < r.min_rank then r.min_rank <- rank
      | Min { rank } -> if rank <> st.rank then st.win <- false
    done;
    if st.is_candidate then begin
      if round = 0 then begin
        let k = Params.referee_count params ~n:ctx.n ~alpha:1. in
        st.referee_ports <- List.init k Fun.id;
        let bid = Bid { rank = st.rank } in
        for _ = 1 to k do
          send.fresh bid
        done
      end
      else if round = 2 then
        (* All replies are in: a candidate that saw only its own rank as
           the minimum is the unique leader w.h.p. *)
        st.decision <- (if st.win then Decision.Elected else Decision.Not_elected)
    end;
    (match st.referee with
    | Some r when round = 1 ->
        Fanout.to_ports_rev send r.cand_ports (Min { rank = r.min_rank })
    | Some _ | None -> ());
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    {
      Observation.role =
        (if st.is_candidate then Observation.Candidate
         else if st.referee <> None then Observation.Referee
         else Observation.Bystander);
      rank = Some st.rank;
      has_decided = st.decision <> Decision.Undecided;
    }
end

let make ?(params = Params.default) () =
  (module Make (struct
    let params = params
  end) : Protocol.S)
