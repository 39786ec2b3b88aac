module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Dist = Ftc_rng.Dist
module ISet = Set.Make (Int)

type msg =
  | Up of int  (* candidate -> referee: a single-bit value *)
  | Down  (* referee -> candidate: "a candidate holds 0" *)
  | Announce_value of int  (* explicit mode: decided value to everyone *)

type referee = {
  mutable cand_ports : int list;
  mutable has_zero : bool;
  mutable forwarded : bool;
}

type candidate = {
  mutable referee_ports : int list;
  mutable has_zero : bool;
  mutable forwarded : bool;
}

type state = {
  input : int;
  is_candidate : bool;
  mutable cand : candidate option;
  mutable referee : referee option;
  mutable decision : Decision.t;
  mutable known_ports : ISet.t;
  mutable announced : bool;
}

module Make (C : sig
  val params : Params.t
  val explicit : bool
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = if C.explicit then "ft-agreement-explicit" else "ft-agreement"
  let knowledge = `KT0

  let msg_bits ~n m =
    match m with
    | Up _ | Down -> Congest.tag_bits + 1
    | Announce_value _ -> Congest.tag_bits + 1 + Congest.id_bits ~n

  (* Round 0: candidates register with their referees, carrying their
     input bit (Step 0). Then two-round forwarding iterations; a crash can
     stall the propagation of 0 by at most one iteration, so the calendar
     is sized to the w.h.p. candidate count plus slack, as in the paper. *)
  let implicit_rounds ~n ~alpha = 2 + (2 * Params.iterations params ~n ~alpha)

  let max_rounds ~n ~alpha = implicit_rounds ~n ~alpha + if C.explicit then 2 else 0

  (* Telemetry phase calendar: round 0 is candidate self-selection and
     referee sampling, then the 2-round forwarding iterations, then (in
     explicit mode) the decided-value broadcast. *)
  let phases ~n ~alpha =
    [ ("candidate-sampling", 0); ("agreement-flooding", 1) ]
    @ if C.explicit then [ ("value-broadcast", implicit_rounds ~n ~alpha) ] else []

  let init (ctx : Protocol.ctx) =
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:ctx.alpha in
    let is_candidate = Dist.bernoulli ctx.rng p in
    let input = if ctx.input <> 0 then 1 else 0 in
    let cand =
      if is_candidate then Some { referee_ports = []; has_zero = input = 0; forwarded = false }
      else None
    in
    {
      input;
      is_candidate;
      cand;
      referee = None;
      (* Step 0: a candidate holding 0 decides 0 immediately; everyone
         else waits — non-candidates for ever (implicit agreement's ⊥). *)
      decision = (if is_candidate && input = 0 then Decision.Agreed 0 else Decision.Undecided);
      known_ports = ISet.empty;
      announced = false;
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r = { cand_ports = []; has_zero = false; forwarded = false } in
        st.referee <- Some r;
        r

  let send_to_ports ports payload =
    List.rev_map (fun p -> { Protocol.dest = Protocol.Port p; payload }) ports

  let step (ctx : Protocol.ctx) st ~round ~inbox =
    let n = ctx.n and alpha = ctx.alpha in
    let implicit_end = implicit_rounds ~n ~alpha in
    let actions = ref [] in
    let emit acts = actions := List.rev_append acts !actions in
    List.iter
      (fun { Protocol.from_port; payload; _ } ->
        st.known_ports <- ISet.add from_port st.known_ports;
        match payload with
        | Up v ->
            let r = referee_of st in
            if not (List.mem from_port r.cand_ports) then
              r.cand_ports <- from_port :: r.cand_ports;
            if v = 0 then r.has_zero <- true
        | Down -> (
            match st.cand with Some c -> c.has_zero <- true | None -> ())
        | Announce_value v -> (
            match st.decision with
            | Decision.Agreed prev when prev <= v -> ()
            | Decision.Agreed _ | Decision.Undecided -> st.decision <- Decision.Agreed v
            | Decision.Elected | Decision.Not_elected | Decision.Follower _ -> ()))
      inbox;
    (* A node serving as both candidate and referee shares its memory:
       a 0 held by either half is held by both. *)
    (match (st.cand, st.referee) with
    | Some c, Some r ->
        if r.has_zero then c.has_zero <- true;
        if c.has_zero then r.has_zero <- true
    | (Some _ | None), _ -> ());
    (* Candidate duties. *)
    (match st.cand with
    | None -> ()
    | Some cand ->
        if round = 0 then begin
          (* Step 0: register with fresh random referees, carrying the
             input bit. This already forwards a 0 input. *)
          let k = Params.referee_count params ~n ~alpha in
          cand.referee_ports <- List.init k Fun.id;
          List.iter (fun p -> st.known_ports <- ISet.add p st.known_ports) cand.referee_ports;
          cand.forwarded <- cand.has_zero;
          emit
            (List.init k (fun _ ->
                 { Protocol.dest = Protocol.Fresh_port; payload = Up st.input }))
        end
        else begin
          (* Step 1: on first hearing 0, decide 0 and forward it once. *)
          if cand.has_zero && st.decision = Decision.Undecided then
            st.decision <- Decision.Agreed 0;
          if cand.has_zero && not cand.forwarded then begin
            cand.forwarded <- true;
            emit (send_to_ports cand.referee_ports (Up 0))
          end;
          (* A candidate that never hears 0 decides 1 when the implicit
             calendar ends (validity: its own input was 1). *)
          if round = implicit_end - 1 && st.decision = Decision.Undecided then
            st.decision <- Decision.Agreed 1
        end);
    (* Referee duties (Step 2): forward a held 0 to all my candidates,
       once. Registrations all arrive in round 1, before or simultaneously
       with any 0, so the forward reaches every candidate of mine. *)
    (match st.referee with
    | None -> ()
    | Some r ->
        if r.has_zero && not r.forwarded then begin
          r.forwarded <- true;
          emit (send_to_ports r.cand_ports Down)
        end);
    (* Explicit extension: decided candidates tell the whole network. *)
    if C.explicit && round = implicit_end && not st.announced then begin
      st.announced <- true;
      match st.decision with
      | Decision.Agreed v when st.is_candidate ->
          let known = ISet.elements st.known_ports in
          let fresh = n - 1 - List.length known in
          emit (send_to_ports known (Announce_value v));
          emit
            (List.init (max 0 fresh) (fun _ ->
                 { Protocol.dest = Protocol.Fresh_port; payload = Announce_value v }))
      | _ -> ()
    end;
    (st, List.rev !actions)

  (* Only candidates act on their own (registration, the decide-1
     fallback, the explicit broadcast); everyone else reacts to
     deliveries within the step they arrive in. A non-candidate skipped
     at [implicit_end] misses only setting [announced], which nothing
     reads for it. *)
  let idle _ st ~round:_ = not st.is_candidate

  let decide st = st.decision

  let observe st =
    let role =
      if st.is_candidate then Observation.Candidate
      else if st.referee <> None then Observation.Referee
      else Observation.Bystander
    in
    { Observation.role; rank = None; has_decided = st.decision <> Decision.Undecided }
end

let calendar_rounds params ~n ~alpha =
  let module M = Make (struct
    let params = params
    let explicit = false
  end) in
  M.max_rounds ~n ~alpha

let make ?(explicit = false) params =
  (module Make (struct
    let params = params
    let explicit = explicit
  end) : Protocol.S)
