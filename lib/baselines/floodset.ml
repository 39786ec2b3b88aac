module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest

type msg = Value of int

(* [heard] marks the ports a message has arrived on. Round 0's broadcast
   opens every port, so later broadcasts reach the peers heard from
   through their ports and count the silent rest as fresh sends, which
   find no peer left and are dropped as unroutable: the set is not a
   prefix of the port range, so it cannot shrink to a count. *)
type state = {
  mutable value : int;
  mutable heard : Bytes.t;  (* per port, '\001' once heard from; empty until then *)
  mutable heard_n : int;
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
    { value = ctx.input; heard = Bytes.empty; heard_n = 0; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    let n = ctx.n in
    let changed = ref (round = 0) in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let p = Protocol.Inbox.port inbox k in
      if Bytes.length st.heard = 0 then st.heard <- Bytes.make (n - 1) '\000';
      if Bytes.get st.heard p = '\000' then begin
        Bytes.set st.heard p '\001';
        st.heard_n <- st.heard_n + 1
      end;
      let (Value v) = Protocol.Inbox.payload inbox k in
      if v < st.value then begin
        st.value <- v;
        changed := true
      end
    done;
    let last = max_rounds ~n ~alpha:ctx.alpha - 1 in
    if !changed && round < last then begin
      (* Every other node once: the ports heard from, ascending, then a
         fresh port per peer not heard from. *)
      let payload = Value st.value in
      for p = 0 to Bytes.length st.heard - 1 do
        if Bytes.get st.heard p <> '\000' then send.port p payload
      done;
      for _ = 1 to n - 1 - st.heard_n do
        send.fresh payload
      done
    end;
    if round = last then st.decision <- Decision.Agreed st.value;
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    Observation.unranked Observation.Bystander ~has_decided:(st.decision <> Decision.Undecided)
end

let make () = (module P : Protocol.S)
