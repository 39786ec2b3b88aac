module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module ISet = Set.Make (Int)

type msg = Value of int

type state = {
  mutable value : int;
  mutable known_ports : ISet.t;
  mutable decision : Decision.t;
}

module P : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "floodset"
  let knowledge = `KT0
  let msg_bits ~n:_ (Value _) = Congest.tag_bits + 1

  (* f + 1 rounds guarantee a crash-free round; one more to decide. *)
  let max_rounds ~n ~alpha = Ftc_sim.Engine.max_faulty ~n ~alpha + 2

  let phases ~n ~alpha =
    [ ("flooding", 0); ("decide", max_rounds ~n ~alpha - 1) ]

  let init (ctx : Protocol.ctx) =
    { value = ctx.input; known_ports = ISet.empty; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox =
    let changed = ref (round = 0) in
    List.iter
      (fun { Protocol.from_port; payload = Value v; _ } ->
        st.known_ports <- ISet.add from_port st.known_ports;
        if v < st.value then begin
          st.value <- v;
          changed := true
        end)
      inbox;
    let actions =
      if !changed && round < max_rounds ~n:ctx.n ~alpha:ctx.alpha - 1 then
        Fanout.broadcast ~n:ctx.n ~known_ports:(ISet.elements st.known_ports) (Value st.value)
      else []
    in
    if round = max_rounds ~n:ctx.n ~alpha:ctx.alpha - 1 then
      st.decision <- Decision.Agreed st.value;
    (st, actions)

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    { Observation.bystander with has_decided = st.decision <> Decision.Undecided }
end

let make () = (module P : Protocol.S)
