module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module Dist = Ftc_rng.Dist

let byzantine_input = 2

(* The message alphabet and honest behaviour mirror Agreement (Sec. V-A);
   the attacker differs only in Step 0, where it forges a 0. Keeping this
   a separate module leaves the faithful protocol untouched. *)
type msg = Up of int | Down

type referee = { mutable cand_ports : int list; mutable has_zero : bool; mutable forwarded : bool }

type candidate = { mutable referee_ports : int list; mutable has_zero : bool; mutable forwarded : bool }

type state = {
  input : int;  (* 0 | 1 honest, byzantine_input = attacker *)
  is_candidate : bool;
  cand : candidate option;
  mutable referee : referee option;
  mutable decision : Decision.t;
}

module Make (C : sig
  val params : Params.t
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = "byzantine-probe-agreement"
  let knowledge = `KT0
  let msg_bits ~n:_ = function Up _ | Down -> Congest.tag_bits + 1
  let max_rounds ~n ~alpha = 2 + (2 * Params.iterations params ~n ~alpha)
  let phases ~n:_ ~alpha:_ = [ ("candidate-sampling", 0); ("probe-flooding", 1) ]

  let init (ctx : Protocol.ctx) =
    let byzantine = ctx.input = byzantine_input in
    let input = if byzantine then byzantine_input else if ctx.input <> 0 then 1 else 0 in
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:ctx.alpha in
    (* The attacker always campaigns: joining the committee costs it one
       referee fan-out, the same sublinear price honest candidates pay. *)
    let is_candidate = byzantine || Dist.bernoulli ctx.rng p in
    {
      input;
      is_candidate;
      cand =
        (if is_candidate then
           Some { referee_ports = []; has_zero = input = 0; forwarded = false }
         else None);
      referee = None;
      decision = (if is_candidate && input = 0 then Decision.Agreed 0 else Decision.Undecided);
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r = { cand_ports = []; has_zero = false; forwarded = false } in
        st.referee <- Some r;
        r

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    let n = ctx.n and alpha = ctx.alpha in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      match Protocol.Inbox.payload inbox k with
      | Up v ->
          let from_port = Protocol.Inbox.port inbox k in
          let r = referee_of st in
          if not (List.mem from_port r.cand_ports) then
            r.cand_ports <- from_port :: r.cand_ports;
          if v = 0 then r.has_zero <- true
      | Down -> ( match st.cand with Some c -> c.has_zero <- true | None -> ())
    done;
    (match (st.cand, st.referee) with
    | Some c, Some r ->
        if r.has_zero then c.has_zero <- true;
        if c.has_zero then r.has_zero <- true
    | (Some _ | None), _ -> ());
    (match st.cand with
    | None -> ()
    | Some cand ->
        if round = 0 then begin
          let k = Params.referee_count params ~n ~alpha in
          cand.referee_ports <- List.init k Fun.id;
          (* THE ATTACK: a Byzantine node registers claiming input 0. *)
          let claimed = if st.input = byzantine_input then 0 else st.input in
          cand.forwarded <- claimed = 0;
          let up = Up claimed in
          for _ = 1 to k do
            send.fresh up
          done
        end
        else begin
          if cand.has_zero && st.decision = Decision.Undecided then
            st.decision <- Decision.Agreed 0;
          if cand.has_zero && not cand.forwarded then begin
            cand.forwarded <- true;
            Fanout.to_ports_rev send cand.referee_ports (Up 0)
          end;
          if round = max_rounds ~n ~alpha - 1 && st.decision = Decision.Undecided then
            st.decision <- Decision.Agreed 1
        end);
    (match st.referee with
    | None -> ()
    | Some r ->
        if r.has_zero && not r.forwarded then begin
          r.forwarded <- true;
          Fanout.to_ports_rev send r.cand_ports Down
        end);
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

let make params =
  (module Make (struct
    let params = params
  end) : Protocol.S)
