module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest

type msg = Push of int

type state = { mutable value : int; mutable decision : Decision.t }

module Make (C : sig
  val fanout : int
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "push-gossip"
  let knowledge = `KT0
  let msg_bits ~n:_ (Push _) = Congest.tag_bits + 1

  let gossip_rounds ~n =
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2) in
    (2 * log2 0 n) + 4

  let max_rounds ~n ~alpha:_ = gossip_rounds ~n + 1
  let phases ~n ~alpha:_ = [ ("push-rumours", 0); ("decide", gossip_rounds ~n) ]

  let init (ctx : Protocol.ctx) = { value = ctx.input; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let (Push v) = Protocol.Inbox.payload inbox k in
      if v < st.value then st.value <- v
    done;
    if round < gossip_rounds ~n:ctx.n then begin
      let push = Push st.value in
      for _ = 1 to C.fanout do
        send.fresh push
      done
    end;
    if round = max_rounds ~n:ctx.n ~alpha:ctx.alpha - 1 then
      st.decision <- Decision.Agreed st.value;
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    Observation.unranked Observation.Bystander ~has_decided:(st.decision <> Decision.Undecided)
end

let make ?(fanout = 2) () =
  (module Make (struct
    let fanout = fanout
  end) : Protocol.S)
