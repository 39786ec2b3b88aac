module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Rng = Ftc_rng.Rng
module Dist = Ftc_rng.Dist
module ISet = Set.Make (Int)

type msg =
  | Announce of { rank : int }  (* candidate -> referee, round 0 *)
  | Known_rank of { rank : int }  (* referee -> candidate, preprocessing *)
  | Propose of { id : int; proposal : int }  (* candidate -> referee, round A *)
  | Relay of { owner : bool; proposal : int }  (* referee -> candidate, round B *)
  | Confirm of { id : int; proposal : int }  (* candidate -> referee, round C *)
  | Relay_confirm of { owner : bool; proposal : int }  (* referee -> cand., round D *)
  | Leader_announce of { rank : int }  (* leader -> everyone, explicit mode *)

(* Referee half of a node: created lazily when the first Announce
   arrives. [cand_ports] are the reply ports of this node's candidates;
   [queue] is the list of ranks still to forward, one per round per edge. *)
type referee = {
  mutable cand_ports : int list;
  mutable known : ISet.t;
  mutable queue : int list;
}

(* Candidate half of a node. *)
type candidate = {
  id : int;
  referee_count : int;
  mutable referee_ports : int list;
  mutable rank_list : ISet.t;  (* known, live-believed ranks, incl. own *)
  mutable retired : ISet.t;  (* ranks believed crashed *)
  mutable proposed : ISet.t;
  mutable supported : ISet.t;
  mutable best_confirmed : int option;
  mutable marked_leader : bool;
  mutable pending : int option;  (* rank awaiting confirmation this iteration *)
  mutable progress : bool;  (* saw a confirmation or a new rank this iteration *)
  mutable quiet_rounds : int;  (* rounds with an empty inbox *)
}

type state = {
  rank : int;
  is_candidate : bool;
  mutable cand : candidate option;
  mutable referee : referee option;
  mutable decision : Decision.t;
  mutable known_ports : ISet.t;  (* every port this node has seen or opened *)
  mutable leader_rank_seen : int option;  (* explicit mode *)
  mutable announced : bool;  (* explicit mode: leader already broadcast *)
}

module Make (C : sig
  val params : Params.t
  val explicit : bool
end) : Protocol.S with type msg = msg = struct
  type nonrec state = state
  type nonrec msg = msg

  let params = C.params

  let name = if C.explicit then "ft-leader-election-explicit" else "ft-leader-election"
  let knowledge = `KT0

  let msg_bits ~n m =
    let rank = Congest.rank_bits ~n and tag = Congest.tag_bits in
    match m with
    | Announce _ | Known_rank _ | Leader_announce _ -> tag + rank
    | Propose _ | Confirm _ -> tag + (2 * rank)
    | Relay _ | Relay_confirm _ -> tag + 1 + rank

  (* Calendar, computable by every node from n and alpha alone:
     round 0                     candidates announce to referees
     rounds 1 .. pre_end-1       referees forward rank lists
     rounds pre_end + 4k + 0..3  iteration k: A, B, C, D
     (explicit mode only) two more rounds: leader broadcast + receipt. *)
  let pre_end ~n ~alpha = 1 + Params.preprocessing_rounds params ~n ~alpha

  let implicit_rounds ~n ~alpha =
    pre_end ~n ~alpha + (4 * Params.iterations params ~n ~alpha) + 1

  let max_rounds ~n ~alpha =
    implicit_rounds ~n ~alpha + if C.explicit then 2 else 0

  (* Telemetry phase calendar, mirroring the round map above. Empty
     ranges (e.g. rank dissemination when preprocessing_rounds = 0)
     collapse away at span-cutting time. *)
  let phases ~n ~alpha =
    [
      ("referee-selection", 0);
      ("rank-dissemination", 1);
      ("election-iterations", pre_end ~n ~alpha);
    ]
    @ if C.explicit then [ ("leader-broadcast", implicit_rounds ~n ~alpha) ] else []

  let init (ctx : Protocol.ctx) =
    let rank = Rng.int_in ctx.rng 1 (Params.rank_bound params ~n:ctx.n) in
    let p = Params.candidate_prob params ~n:ctx.n ~alpha:ctx.alpha in
    let is_candidate = Dist.bernoulli ctx.rng p in
    let cand =
      if is_candidate then
        Some
          {
            id = rank;
            referee_count = Params.referee_count params ~n:ctx.n ~alpha:ctx.alpha;
            referee_ports = [];
            rank_list = ISet.singleton rank;
            retired = ISet.empty;
            proposed = ISet.empty;
            supported = ISet.empty;
            best_confirmed = None;
            marked_leader = false;
            pending = None;
            progress = false;
            quiet_rounds = 0;
          }
      else None
    in
    {
      rank;
      is_candidate;
      cand;
      referee = None;
      (* Implicit election: a node that is not a candidate can already
         output Not_elected; deciding does not stop it from relaying. *)
      decision = (if is_candidate then Decision.Undecided else Decision.Not_elected);
      known_ports = ISet.empty;
      leader_rank_seen = None;
      announced = false;
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r = { cand_ports = []; known = ISet.empty; queue = [] } in
        st.referee <- Some r;
        r

  (* Adopting a confirmed leader is monotone in the rank: a larger
     confirmation always wins, so transient split beliefs (possible only
     when a confirmer crashes mid-broadcast) converge to the maximum
     confirmation that any shared non-faulty referee relayed. *)
  let adopt_confirmed cand rank =
    let better = match cand.best_confirmed with None -> true | Some b -> rank > b in
    if better then begin
      cand.best_confirmed <- Some rank;
      cand.rank_list <- ISet.add rank (ISet.filter (fun r -> r >= rank) cand.rank_list);
      cand.marked_leader <- rank = cand.id;
      cand.progress <- true;
      match cand.pending with
      | Some p when p <= rank -> cand.pending <- None
      | Some _ | None -> ()
    end
    else if cand.best_confirmed = Some rank then cand.progress <- true

  let note_rank cand rank =
    if not (ISet.mem rank cand.retired) then begin
      if not (ISet.mem rank cand.rank_list) then begin
        cand.rank_list <- ISet.add rank cand.rank_list;
        cand.progress <- true
      end
    end

  (* Relay processing shared by rounds A (Relay_confirm) and C (Relay):
     returns the maximum relayed proposal and whether it was
     owner-flagged. *)
  let max_relay relays =
    List.fold_left
      (fun acc (owner, proposal) ->
        match acc with
        | Some (_, best) when best > proposal -> acc
        | Some (prev_owner, best) when best = proposal -> Some (prev_owner || owner, best)
        | Some _ | None -> Some (owner, proposal))
      None relays

  let send_to_ports ports payload =
    List.rev_map (fun p -> { Protocol.dest = Protocol.Port p; payload }) ports

  (* Round-A candidate actions: handle last iteration's confirmations,
     apply the Step-4 timeout, then propose the minimum live rank. *)
  let candidate_round_a cand confirm_relays =
    (match max_relay confirm_relays with
    | Some (true, p) -> adopt_confirmed cand p
    | Some (false, p) ->
        note_rank cand p;
        if Some p <> cand.pending then cand.progress <- true
    | None -> ());
    (* Step-4 timeout: a pending rank that produced no confirmation and no
       other progress for a whole iteration is considered crashed. One's
       own rank is never retired. *)
    (match cand.pending with
    | Some p when (not cand.progress) && p <> cand.id ->
        cand.retired <- ISet.add p cand.retired;
        cand.rank_list <- ISet.remove p cand.rank_list;
        cand.pending <- None
    | Some _ | None -> ());
    cand.progress <- false;
    if cand.best_confirmed <> None then []
    else begin
      match ISet.min_elt_opt cand.rank_list with
      | None -> []
      | Some proposal ->
          if proposal = cand.id then begin
            (* Proposing one's own rank marks the node as leader (Step 1);
               if the send succeeds every candidate will hear it. *)
            cand.marked_leader <- true;
            cand.pending <- Some proposal;
            if ISet.mem proposal cand.proposed then []
            else begin
              cand.proposed <- ISet.add proposal cand.proposed;
              send_to_ports cand.referee_ports (Propose { id = cand.id; proposal })
            end
          end
          else if ISet.mem proposal cand.proposed then begin
            (* Already proposed once (Step 1's "only once"); keep waiting
               for a confirmation or the timeout. *)
            cand.pending <- Some proposal;
            []
          end
          else begin
            cand.proposed <- ISet.add proposal cand.proposed;
            cand.pending <- Some proposal;
            send_to_ports cand.referee_ports (Propose { id = cand.id; proposal })
          end
    end

  (* Round-C candidate actions: react to the referees' maximum relayed
     proposal (Step 3). *)
  let candidate_round_c cand relays =
    match max_relay relays with
    | None -> []
    | Some (owner, p) ->
        note_rank cand p;
        if Some p <> cand.pending || owner then cand.progress <- true;
        if p = cand.id then begin
          (* My rank is the round's maximum: confirm my leadership, unless
             a larger rank was already confirmed. *)
          match cand.best_confirmed with
          | Some b when b > cand.id -> []
          | Some _ | None ->
              let already = cand.best_confirmed = Some cand.id in
              adopt_confirmed cand cand.id;
              if already then []
              else send_to_ports cand.referee_ports (Confirm { id = cand.id; proposal = cand.id })
        end
        else if owner then begin
          (* Owner-proposed maximum: adopt it and echo support once, so the
             confirmation also flows through my referees. *)
          adopt_confirmed cand p;
          if ISet.mem p cand.supported then []
          else begin
            cand.supported <- ISet.add p cand.supported;
            send_to_ports cand.referee_ports (Confirm { id = cand.id; proposal = p })
          end
        end
        else begin
          (* A plain maximum: support it once and await its owner's
             confirmation (or the timeout). *)
          (match cand.pending with
          | Some q when q >= p -> ()
          | Some _ | None -> cand.pending <- Some p);
          if ISet.mem p cand.supported || cand.best_confirmed <> None then []
          else begin
            cand.supported <- ISet.add p cand.supported;
            send_to_ports cand.referee_ports (Confirm { id = cand.id; proposal = p })
          end
        end

  let finalize_decision st =
    match st.cand with
    | None -> ()
    | Some cand ->
        st.decision <-
          (if cand.marked_leader && cand.best_confirmed = Some cand.id then Decision.Elected
           else Decision.Not_elected)

  let step (ctx : Protocol.ctx) st ~round ~inbox =
    let n = ctx.n and alpha = ctx.alpha in
    let pre_end = pre_end ~n ~alpha in
    let implicit_end = implicit_rounds ~n ~alpha in
    let actions = ref [] in
    let emit acts = actions := List.rev_append acts !actions in
    (* -- Generic inbox processing (referee registration, rank intake,
          relay buffering for the phase logic below). -- *)
    let relays = ref [] and confirm_relays = ref [] in
    let proposals = ref [] and confirms = ref [] in
    List.iter
      (fun { Protocol.from_port; payload; _ } ->
        st.known_ports <- ISet.add from_port st.known_ports;
        match payload with
        | Announce { rank } ->
            let r = referee_of st in
            r.cand_ports <- from_port :: r.cand_ports;
            if not (ISet.mem rank r.known) then begin
              r.known <- ISet.add rank r.known;
              r.queue <- r.queue @ [ rank ]
            end
        | Known_rank { rank } -> (
            match st.cand with Some c -> note_rank c rank | None -> ())
        | Propose { id; proposal } -> proposals := (id, proposal) :: !proposals
        | Relay { owner; proposal } -> relays := (owner, proposal) :: !relays
        | Confirm { id; proposal } -> confirms := (id, proposal) :: !confirms
        | Relay_confirm { owner; proposal } ->
            confirm_relays := (owner, proposal) :: !confirm_relays
        | Leader_announce { rank } ->
            st.leader_rank_seen <- Some rank;
            if st.decision <> Decision.Elected then st.decision <- Decision.Follower rank)
      inbox;
    (* -- Candidate start-up: sample referees through fresh ports. -- *)
    (match st.cand with
    | Some cand when round = 0 ->
        let sends =
          List.init cand.referee_count (fun _ ->
              { Protocol.dest = Protocol.Fresh_port; payload = Announce { rank = cand.id } })
        in
        (* The engine assigns consecutive port numbers to fresh sends, so
           the referee ports are 0 .. referee_count-1. *)
        cand.referee_ports <- List.init cand.referee_count Fun.id;
        List.iter (fun p -> st.known_ports <- ISet.add p st.known_ports) cand.referee_ports;
        emit sends
    | Some _ | None -> ());
    (* -- Referee duties: forward one known rank per candidate per round
          during preprocessing, and relay proposals/confirmations. -- *)
    (match st.referee with
    | None -> ()
    | Some r ->
        (match r.queue with
        | rank :: rest when round < pre_end ->
            r.queue <- rest;
            emit (send_to_ports r.cand_ports (Known_rank { rank }))
        | _ :: _ | [] -> ());
        (match !proposals with
        | [] -> ()
        | props ->
            let owner, proposal =
              List.fold_left
                (fun (o, best) (id, p) ->
                  if p > best then (id = p, p) else if p = best then (o || id = p, p) else (o, best))
                (false, min_int) props
            in
            emit (send_to_ports r.cand_ports (Relay { owner; proposal })));
        (match !confirms with
        | [] -> ()
        | cs ->
            let owner, proposal =
              List.fold_left
                (fun (o, best) (id, p) ->
                  if p > best then (id = p, p) else if p = best then (o || id = p, p) else (o, best))
                (false, min_int) cs
            in
            emit (send_to_ports r.cand_ports (Relay_confirm { owner; proposal }))));
    (* -- Candidate iteration phases. -- *)
    (match st.cand with
    | None -> ()
    | Some cand ->
        if inbox = [] then cand.quiet_rounds <- cand.quiet_rounds + 1
        else cand.quiet_rounds <- 0;
        if round >= pre_end && round < implicit_end then begin
          match (round - pre_end) mod 4 with
          | 0 -> emit (candidate_round_a cand !confirm_relays)
          | 2 -> emit (candidate_round_c cand !relays)
          | 1 | 3 -> ()
          | _ -> assert false
        end;
        (* Early decision: a settled candidate that heard nothing for a few
           full iterations fixes its output, letting the engine stop on
           quiescence. Deciding does not halt the node. *)
        if
          st.decision = Decision.Undecided
          && cand.best_confirmed <> None
          && cand.quiet_rounds >= 4 * params.Params.quiet_iterations_to_decide
        then finalize_decision st;
        if round = implicit_end - 1 && st.decision = Decision.Undecided then
          finalize_decision st);
    (* -- Explicit extension: the leader tells everyone. -- *)
    if C.explicit then begin
      if st.decision = Decision.Elected && not st.announced then begin
        st.announced <- true;
        (* Reach all n-1 neighbours: every known port, plus fresh ports for
           the unknown remainder (the engine never re-opens a known peer
           through a fresh port, so coverage is exact). *)
        let known = ISet.elements st.known_ports in
        let fresh = n - 1 - List.length known in
        emit (send_to_ports known (Leader_announce { rank = st.rank }));
        emit
          (List.init (max 0 fresh) (fun _ ->
               { Protocol.dest = Protocol.Fresh_port; payload = Leader_announce { rank = st.rank } }))
      end
    end;
    (st, List.rev !actions)

  (* Bystanders only react to deliveries. A referee acts on its own
     while it still has ranks to forward during preprocessing, and a
     candidate runs the whole implicit calendar; past it a candidate's
     step only moves the quiet-round counter, which nothing reads once
     the decision is fixed. *)
  let idle (ctx : Protocol.ctx) st ~round =
    match (st.cand, st.referee) with
    | Some _, _ -> round >= implicit_rounds ~n:ctx.n ~alpha:ctx.alpha
    | None, Some { queue = _ :: _; _ } -> round >= pre_end ~n:ctx.n ~alpha:ctx.alpha
    | None, (Some { queue = []; _ } | None) -> true

  let decide st =
    if C.explicit && st.decision = Decision.Not_elected && st.leader_rank_seen = None then
      (* Explicit mode: a node that has not yet learned the leader's
         identity is still undecided. *)
      Decision.Undecided
    else st.decision

  let observe st =
    let role =
      if st.is_candidate then Observation.Candidate
      else if st.referee <> None then Observation.Referee
      else Observation.Bystander
    in
    {
      Observation.role;
      rank = Some st.rank;
      (* Via [decide], so explicit-mode masking (a node that has not yet
         learnt the leader is still undecided) is reflected here too. *)
      has_decided = decide st <> Decision.Undecided;
    }
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
