module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest

type msg =
  | Agg of int  (* partial minimum travelling up the tree *)
  | Final of int  (* aggregate broadcast by the (backup) root *)

type state = {
  self : int;
  mutable agg : int;
  mutable final : int option;  (* minimum over received Final values *)
  mutable decision : Decision.t;
}

let depth i =
  let rec go d v = if v = 0 then d else go (d + 1) ((v - 1) / 2) in
  go 0 i

module P : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let name = "tree-agreement"
  let knowledge = `KT1

  let msg_bits ~n:_ = function Agg _ | Final _ -> Congest.tag_bits + 1

  let max_depth ~n = depth (n - 1)

  (* Calendar: up phase in rounds [0, 2D]; downward broadcasts start at
     2D + 2, one depth level every 2 rounds; one final round to decide. *)
  let down_start ~n = (2 * max_depth ~n) + 2
  let max_rounds ~n ~alpha:_ = down_start ~n + (2 * (max_depth ~n + 1)) + 2

  let phases ~n ~alpha:_ =
    [ ("aggregate-up", 0); ("broadcast-down", down_start ~n) ]

  let init (ctx : Protocol.ctx) =
    let self = match ctx.self with Some s -> s | None -> invalid_arg "tree: needs KT1" in
    { self; agg = ctx.input; final = None; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    let n = ctx.n in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      match Protocol.Inbox.payload inbox k with
      | Agg v -> if v < st.agg then st.agg <- v
      | Final v -> (
          match st.final with
          | Some f when f <= v -> ()
          | Some _ | None -> st.final <- Some v)
    done;
    let d = depth st.self in
    (* Up phase: send the partial minimum to grandparent and parent. The
       two phases never share a round. *)
    if st.self > 0 && round = 2 * (max_depth ~n - d) then begin
      let parent = (st.self - 1) / 2 in
      let agg = Agg st.agg in
      if parent > 0 then send.node ((parent - 1) / 2) agg;
      send.node parent agg
    end;
    (* Down phase: broadcast if no Final has been heard by my depth slot. *)
    if round = down_start ~n + (2 * d) && st.final = None then begin
      st.final <- Some st.agg;
      let final = Final st.agg in
      for j = 0 to n - 1 do
        if j <> st.self then send.node j final
      done
    end;
    if round = max_rounds ~n ~alpha:ctx.alpha - 1 then
      st.decision <-
        (match st.final with Some v -> Decision.Agreed v | None -> Decision.Agreed st.agg);
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    {
      Observation.role =
        (if st.self = 0 then Observation.Coordinator else Observation.Bystander);
      rank = Some st.self;
      has_decided = st.decision <> Decision.Undecided;
    }
end

let make () = (module P : Protocol.S)
