module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest

type msg = Adopt of int

type state = { self : int; mutable value : int; mutable decision : Decision.t }

module P : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "rotating-coordinator"
  let knowledge = `KT1
  let msg_bits ~n:_ (Adopt _) = Congest.tag_bits + 1

  let rotations ~n ~alpha = Ftc_sim.Engine.max_faulty ~n ~alpha + 1
  let max_rounds ~n ~alpha = rotations ~n ~alpha + 1

  let phases ~n ~alpha =
    [ ("coordinator-rotations", 0); ("decide", rotations ~n ~alpha) ]

  let init (ctx : Protocol.ctx) =
    let self = match ctx.self with Some s -> s | None -> invalid_arg "rotating: needs KT1" in
    { self; value = ctx.input; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let (Adopt v) = Protocol.Inbox.payload inbox k in
      st.value <- v
    done;
    if round < rotations ~n:ctx.n ~alpha:ctx.alpha && round = st.self then begin
      let adopt = Adopt st.value in
      for d = 0 to ctx.n - 1 do
        if d <> st.self then send.node d adopt
      done
    end;
    if round = max_rounds ~n:ctx.n ~alpha:ctx.alpha - 1 then
      st.decision <- Decision.Agreed st.value;
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    {
      Observation.role = Observation.Coordinator;
      rank = Some st.self;
      has_decided = st.decision <> Decision.Undecided;
    }
end

let make () = (module P : Protocol.S)
