module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module Dist = Ftc_rng.Dist

type msg =
  | Up of int  (* candidate -> referee: running minimum *)
  | Down of int  (* referee -> candidate: running minimum *)

type half = { mutable ports : int list; mutable best : int; mutable sent : int }
(* One direction of a node: [ports] to talk to, [best] the running
   minimum, [sent] the smallest value already forwarded (so each strict
   improvement is forwarded exactly once). *)

type state = {
  input : int;
  is_candidate : bool;
  cand : half option;
  mutable referee : half option;
  mutable decision : Decision.t;
}

module Make (C : sig
  val params : Params.t
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = "ft-min-agreement"
  let knowledge = `KT0

  let msg_bits ~n = function Up _ | Down _ -> Congest.tag_bits + Congest.rank_bits ~n

  let implicit_rounds ~n ~alpha = 2 + (2 * Params.iterations params ~n ~alpha)
  let max_rounds ~n ~alpha = implicit_rounds ~n ~alpha
  let phases ~n:_ ~alpha:_ = [ ("candidate-sampling", 0); ("min-flooding", 1) ]

  let clamp_input ~n v = max 0 (min (Params.rank_bound params ~n) v)

  let init (ctx : Protocol.ctx) =
    let input = clamp_input ~n:ctx.n ctx.input in
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:ctx.alpha in
    let is_candidate = Dist.bernoulli ctx.rng p in
    {
      input;
      is_candidate;
      cand = (if is_candidate then Some { ports = []; best = input; sent = max_int } else None);
      referee = None;
      decision = Decision.Undecided;
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r = { ports = []; best = max_int; sent = max_int } in
        st.referee <- Some r;
        r

  let forward_improvement send half payload_of =
    if half.best < half.sent then begin
      half.sent <- half.best;
      Fanout.to_ports_rev send half.ports (payload_of half.best)
    end

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    let n = ctx.n and alpha = ctx.alpha in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      match Protocol.Inbox.payload inbox k with
      | Up v ->
          let from_port = Protocol.Inbox.port inbox k in
          let r = referee_of st in
          if not (List.mem from_port r.ports) then r.ports <- from_port :: r.ports;
          if v < r.best then r.best <- v
      | Down v -> (
          match st.cand with
          | Some c -> if v < c.best then c.best <- v
          | None -> ())
    done;
    (* Shared memory between the two halves of a dual-role node. *)
    (match (st.cand, st.referee) with
    | Some c, Some r ->
        let m = min c.best r.best in
        c.best <- m;
        r.best <- m
    | (Some _ | None), _ -> ());
    (match st.cand with
    | None -> ()
    | Some cand ->
        if round = 0 then begin
          let k = Params.referee_count params ~n ~alpha in
          cand.ports <- List.init k Fun.id;
          cand.sent <- cand.best;
          let up = Up st.input in
          for _ = 1 to k do
            send.fresh up
          done
        end
        else forward_improvement send cand (fun v -> Up v);
        if round = implicit_rounds ~n ~alpha - 1 then
          st.decision <- Decision.Agreed cand.best);
    (match st.referee with
    | None -> ()
    | Some r -> forward_improvement send r (fun v -> Down v));
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    let role =
      if st.is_candidate then Observation.Candidate
      else if st.referee <> None then Observation.Referee
      else Observation.Bystander
    in
    { Observation.role; rank = Some st.input; has_decided = st.decision <> Decision.Undecided }
end

let make params =
  (module Make (struct
    let params = params
  end) : Protocol.S)
