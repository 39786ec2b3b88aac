module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
module Dist = Ftc_rng.Dist

type msg =
  | Up of int  (* candidate -> referee: a single-bit value *)
  | Down  (* referee -> candidate: "a candidate holds 0" *)
  | Announce_value of int  (* explicit mode: decided value to everyone *)

(* Referee half: the reply ports of its registered candidates, newest
   first, and a byte per port marking the registered ones (ports are
   dense small integers). *)
type referee = {
  mutable cand_ports : int list;
  mutable registered : Bytes.t;
  mutable has_zero : bool;
  mutable forwarded : bool;
}

(* Candidate half: its referees sit behind ports 0 .. referee_count - 1,
   the fresh ports it opens in round 0. *)
type candidate = {
  mutable referee_count : int;
  mutable has_zero : bool;
  mutable forwarded : bool;
}

type state = {
  input : int;
  is_candidate : bool;
  mutable cand : candidate option;
  mutable referee : referee option;
  mutable decision : Decision.t;
  mutable ports : int;
      (* ports this node has seen or opened: exactly 0 .. ports - 1, since
         every delivery passes through [step] and ports open consecutively *)
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
      if is_candidate then Some { referee_count = 0; has_zero = input = 0; forwarded = false }
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
      ports = 0;
      announced = false;
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r =
          { cand_ports = []; registered = Bytes.make 4 '\000'; has_zero = false; forwarded = false }
        in
        st.referee <- Some r;
        r

  let register r port =
    if port >= Bytes.length r.registered then begin
      let b = Bytes.make (2 * (port + 1)) '\000' in
      Bytes.blit r.registered 0 b 0 (Bytes.length r.registered);
      r.registered <- b
    end;
    if Bytes.get r.registered port = '\000' then begin
      Bytes.set r.registered port '\001';
      r.cand_ports <- port :: r.cand_ports
    end

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    let n = ctx.n and alpha = ctx.alpha in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let from_port = Protocol.Inbox.port inbox k in
      if from_port >= st.ports then st.ports <- from_port + 1;
      match Protocol.Inbox.payload inbox k with
      | Up v ->
          let r = referee_of st in
          register r from_port;
          if v = 0 then r.has_zero <- true
      | Down -> ( match st.cand with Some c -> c.has_zero <- true | None -> ())
      | Announce_value v -> (
          match st.decision with
          | Decision.Agreed prev when prev <= v -> ()
          | Decision.Agreed _ | Decision.Undecided -> st.decision <- Decision.Agreed v
          | Decision.Elected | Decision.Not_elected | Decision.Follower _ -> ())
    done;
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
          cand.referee_count <- k;
          if k > st.ports then st.ports <- k;
          cand.forwarded <- cand.has_zero;
          let up = Up st.input in
          for _ = 1 to k do
            send.fresh up
          done
        end
        else begin
          (* Step 1: on first hearing 0, decide 0 and forward it once,
             highest referee port first. *)
          if cand.has_zero && st.decision = Decision.Undecided then
            st.decision <- Decision.Agreed 0;
          if cand.has_zero && not cand.forwarded then begin
            cand.forwarded <- true;
            for p = cand.referee_count - 1 downto 0 do
              send.port p (Up 0)
            done
          end;
          (* A candidate that never hears 0 decides 1 when the implicit
             calendar ends (validity: its own input was 1). *)
          if st.decision = Decision.Undecided && round = implicit_rounds ~n ~alpha - 1 then
            st.decision <- Decision.Agreed 1
        end);
    (* Referee duties (Step 2): forward a held 0 to all my candidates,
       once, in registration order. Registrations all arrive in round 1,
       before or simultaneously with any 0, so the forward reaches every
       candidate of mine. *)
    (match st.referee with
    | None -> ()
    | Some r ->
        if r.has_zero && not r.forwarded then begin
          r.forwarded <- true;
          Fanout.to_ports_rev send r.cand_ports Down
        end);
    (* Explicit extension: decided candidates tell the whole network. *)
    if C.explicit && (not st.announced) && round = implicit_rounds ~n ~alpha then begin
      st.announced <- true;
      match st.decision with
      | Decision.Agreed v when st.is_candidate ->
          Fanout.broadcast send ~n ~ports:st.ports (Announce_value v)
      | _ -> ()
    end;
    st

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
    Observation.unranked role ~has_decided:(st.decision <> Decision.Undecided)
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
