module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module Params = Ftc_core.Params
module Dist = Ftc_rng.Dist

type msg =
  | Bit of int  (* candidate -> referee *)
  | Min_bit of int  (* referee -> candidate *)

type referee = { mutable cand_ports : int list; mutable min_bit : int }

type state = {
  input : int;
  is_candidate : bool;
  mutable referee : referee option;
  mutable best : int;
  mutable decision : Decision.t;
}

module Make (C : sig
  val params : Params.t
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = "amp-agreement"
  let knowledge = `KT0
  let msg_bits ~n:_ = function Bit _ | Min_bit _ -> Congest.tag_bits + 1
  let max_rounds ~n:_ ~alpha:_ = 4

  let phases ~n:_ ~alpha:_ =
    [ ("referee-selection", 0); ("referee-reply", 1); ("decision", 2) ]

  let init (ctx : Protocol.ctx) =
    let input = if ctx.input <> 0 then 1 else 0 in
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:1. in
    let is_candidate = Dist.bernoulli ctx.rng p in
    { input; is_candidate; referee = None; best = input; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      match Protocol.Inbox.payload inbox k with
      | Bit b ->
          let r =
            match st.referee with
            | Some r -> r
            | None ->
                let r = { cand_ports = []; min_bit = 1 } in
                st.referee <- Some r;
                r
          in
          r.cand_ports <- Protocol.Inbox.port inbox k :: r.cand_ports;
          if b < r.min_bit then r.min_bit <- b
      | Min_bit b -> if b < st.best then st.best <- b
    done;
    if st.is_candidate then begin
      if round = 0 then begin
        let k = Params.referee_count params ~n:ctx.n ~alpha:1. in
        let bit = Bit st.input in
        for _ = 1 to k do
          send.fresh bit
        done
      end
      else if round = 2 then st.decision <- Decision.Agreed st.best
    end;
    (match st.referee with
    | Some r when round = 1 ->
        Fanout.to_ports_rev send r.cand_ports (Min_bit r.min_bit)
    | Some _ | None -> ());
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    Observation.unranked
      (if st.is_candidate then Observation.Candidate
       else if st.referee <> None then Observation.Referee
       else Observation.Bystander)
      ~has_decided:(st.decision <> Decision.Undecided)
end

let make ?(params = Params.default) () =
  (module Make (struct
    let params = params
  end) : Protocol.S)
