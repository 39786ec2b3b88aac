module Protocol = Ftc_sim.Protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Fanout = Ftc_sim.Fanout
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
   arrives. [cand_ports] are the reply ports of this node's candidates
   in arrival order; [known] the ranks it has heard, first-seen order,
   of which [known.(qhead ..)] are still to forward, one per round per
   edge. *)
type referee = {
  mutable cand_ports : int array;
  mutable cand_n : int;
  mutable known : int array;
  mutable known_n : int;
  mutable qhead : int;
}

(* Candidate half of a node. Its referees sit behind ports
   0 .. referee_count - 1, the fresh ports it opens in round 0. *)
type candidate = {
  id : int;
  referee_count : int;
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

(* What every node derives from n and alpha alone, computed once per
   (n, alpha) and shared by all node states of a run. *)
type calendar = {
  cal_n : int;
  cal_alpha : float;
  pre_end : int;  (* first round of the iterations *)
  implicit_end : int;  (* rounds of the implicit calendar *)
  rank_bound : int;
  candidate_prob : float;
  referee_count : int;
}

type state = {
  rank : int;
  is_candidate : bool;
  cal : calendar;
  mutable cand : candidate option;
  mutable referee : referee option;
  mutable decision : Decision.t;
  mutable ports : int;
      (* ports this node has seen or opened: exactly 0 .. ports - 1, since
         every delivery passes through [step] and ports open consecutively *)
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

  (* The last calendar built; runs on other domains may replace it, and
     a stale read only costs a rebuild. *)
  let last_calendar =
    Atomic.make
      {
        cal_n = -1;
        cal_alpha = nan;
        pre_end = 0;
        implicit_end = 0;
        rank_bound = 0;
        candidate_prob = 0.;
        referee_count = 0;
      }

  let calendar ~n ~alpha =
    let c = Atomic.get last_calendar in
    if c.cal_n = n && Float.equal c.cal_alpha alpha then c
    else begin
      let c =
        {
          cal_n = n;
          cal_alpha = alpha;
          pre_end = pre_end ~n ~alpha;
          implicit_end = implicit_rounds ~n ~alpha;
          rank_bound = Params.rank_bound params ~n;
          candidate_prob = Params.candidate_prob params ~n ~alpha;
          referee_count = Params.referee_count params ~n ~alpha;
        }
      in
      Atomic.set last_calendar c;
      c
    end

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

  let quiet_limit = 4 * params.Params.quiet_iterations_to_decide

  let init (ctx : Protocol.ctx) =
    let cal = calendar ~n:ctx.n ~alpha:ctx.alpha in
    let rank = Rng.int_in ctx.rng 1 cal.rank_bound in
    let is_candidate = Dist.bernoulli ctx.rng cal.candidate_prob in
    let cand =
      if is_candidate then
        Some
          {
            id = rank;
            referee_count = cal.referee_count;
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
      cal;
      cand;
      referee = None;
      (* Implicit election: a node that is not a candidate can already
         output Not_elected; deciding does not stop it from relaying. *)
      decision = (if is_candidate then Decision.Undecided else Decision.Not_elected);
      ports = 0;
      leader_rank_seen = None;
      announced = false;
    }

  let referee_of st =
    match st.referee with
    | Some r -> r
    | None ->
        let r =
          { cand_ports = Array.make 4 0; cand_n = 0; known = Array.make 4 0; known_n = 0; qhead = 0 }
        in
        st.referee <- Some r;
        r

  let push a n v =
    let a =
      if n < Array.length a then a
      else begin
        let a' = Array.make (2 * n) 0 in
        Array.blit a 0 a' 0 n;
        a'
      end
    in
    a.(n) <- v;
    a

  let register_candidate r port =
    r.cand_ports <- push r.cand_ports r.cand_n port;
    r.cand_n <- r.cand_n + 1

  let learn_rank r rank =
    let rec known j = j < r.known_n && (r.known.(j) = rank || known (j + 1)) in
    if not (known 0) then begin
      r.known <- push r.known r.known_n rank;
      r.known_n <- r.known_n + 1
    end

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

  (* Candidate -> referees, highest port first. *)
  let send_to_referees (send : msg Protocol.send) (cand : candidate) payload =
    for p = cand.referee_count - 1 downto 0 do
      send.port p payload
    done

  (* Referee -> its candidates, in registration order. *)
  let send_to_candidates (send : msg Protocol.send) r payload =
    for j = 0 to r.cand_n - 1 do
      send.port r.cand_ports.(j) payload
    done

  (* Round-A candidate actions: handle last iteration's confirmations
     (the maximum relayed one, 0 if none, and whether its owner
     proposed it), apply the Step-4 timeout, then propose the minimum
     live rank. *)
  let candidate_round_a send cand ~best ~owner =
    if best > 0 then
      if owner then adopt_confirmed cand best
      else begin
        note_rank cand best;
        if Some best <> cand.pending then cand.progress <- true
      end;
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
    if cand.best_confirmed = None then
      match ISet.min_elt_opt cand.rank_list with
      | None -> ()
      | Some proposal ->
          if proposal = cand.id then begin
            (* Proposing one's own rank marks the node as leader (Step 1);
               if the send succeeds every candidate will hear it. *)
            cand.marked_leader <- true;
            cand.pending <- Some proposal;
            if not (ISet.mem proposal cand.proposed) then begin
              cand.proposed <- ISet.add proposal cand.proposed;
              send_to_referees send cand (Propose { id = cand.id; proposal })
            end
          end
          else if ISet.mem proposal cand.proposed then
            (* Already proposed once (Step 1's "only once"); keep waiting
               for a confirmation or the timeout. *)
            cand.pending <- Some proposal
          else begin
            cand.proposed <- ISet.add proposal cand.proposed;
            cand.pending <- Some proposal;
            send_to_referees send cand (Propose { id = cand.id; proposal })
          end

  (* Round-C candidate actions: react to the referees' maximum relayed
     proposal [p] (0 if none) (Step 3). *)
  let candidate_round_c send cand ~best:p ~owner =
    if p > 0 then begin
      note_rank cand p;
      if Some p <> cand.pending || owner then cand.progress <- true;
      if p = cand.id then begin
        (* My rank is the round's maximum: confirm my leadership, unless
           a larger rank was already confirmed. *)
        match cand.best_confirmed with
        | Some b when b > cand.id -> ()
        | Some _ | None ->
            let already = cand.best_confirmed = Some cand.id in
            adopt_confirmed cand cand.id;
            if not already then
              send_to_referees send cand (Confirm { id = cand.id; proposal = cand.id })
      end
      else if owner then begin
        (* Owner-proposed maximum: adopt it and echo support once, so the
           confirmation also flows through my referees. *)
        adopt_confirmed cand p;
        if not (ISet.mem p cand.supported) then begin
          cand.supported <- ISet.add p cand.supported;
          send_to_referees send cand (Confirm { id = cand.id; proposal = p })
        end
      end
      else begin
        (* A plain maximum: support it once and await its owner's
           confirmation (or the timeout). *)
        (match cand.pending with
        | Some q when q >= p -> ()
        | Some _ | None -> cand.pending <- Some p);
        if not (ISet.mem p cand.supported || cand.best_confirmed <> None) then begin
          cand.supported <- ISet.add p cand.supported;
          send_to_referees send cand (Confirm { id = cand.id; proposal = p })
        end
      end
    end

  let finalize_decision st =
    match st.cand with
    | None -> ()
    | Some cand ->
        st.decision <-
          (if cand.marked_leader && cand.best_confirmed = Some cand.id then Decision.Elected
           else Decision.Not_elected)

  let step (ctx : Protocol.ctx) st ~round ~inbox ~send =
    let cal = st.cal in
    (* -- Inbox: port count, referee registration, rank intake, and the
          maxima of this round's proposals, confirmations and relays
          (0 = none: ranks are >= 1). A relay maximum's owner flag is
          the OR over its holders; a proposal maximum is owner-proposed
          when some holder proposed its own rank. Both folds are
          order-independent. -- *)
    let prop_best = ref 0 and prop_owner = ref false in
    let conf_best = ref 0 and conf_owner = ref false in
    let relay_best = ref 0 and relay_owner = ref false in
    let crelay_best = ref 0 and crelay_owner = ref false in
    let len = Protocol.Inbox.length inbox in
    for k = 0 to len - 1 do
      let from_port = Protocol.Inbox.port inbox k in
      if from_port >= st.ports then st.ports <- from_port + 1;
      match Protocol.Inbox.payload inbox k with
      | Announce { rank } ->
          let r = referee_of st in
          register_candidate r from_port;
          learn_rank r rank
      | Known_rank { rank } -> ( match st.cand with Some c -> note_rank c rank | None -> ())
      | Propose { id; proposal } ->
          if proposal > !prop_best then begin
            prop_best := proposal;
            prop_owner := id = proposal
          end
          else if proposal = !prop_best then prop_owner := !prop_owner || id = proposal
      | Confirm { id; proposal } ->
          if proposal > !conf_best then begin
            conf_best := proposal;
            conf_owner := id = proposal
          end
          else if proposal = !conf_best then conf_owner := !conf_owner || id = proposal
      | Relay { owner; proposal } ->
          if proposal > !relay_best then begin
            relay_best := proposal;
            relay_owner := owner
          end
          else if proposal = !relay_best then relay_owner := !relay_owner || owner
      | Relay_confirm { owner; proposal } ->
          if proposal > !crelay_best then begin
            crelay_best := proposal;
            crelay_owner := owner
          end
          else if proposal = !crelay_best then crelay_owner := !crelay_owner || owner
      | Leader_announce { rank } ->
          st.leader_rank_seen <- Some rank;
          if st.decision <> Decision.Elected then st.decision <- Decision.Follower rank
    done;
    (* -- Candidate start-up: sample referees through fresh ports, which
          the engine numbers 0 .. referee_count-1. -- *)
    (match st.cand with
    | Some cand when round = 0 ->
        let announce = Announce { rank = cand.id } in
        for _ = 1 to cand.referee_count do
          send.Protocol.fresh announce
        done;
        if cand.referee_count > st.ports then st.ports <- cand.referee_count
    | Some _ | None -> ());
    (* -- Referee duties: forward one known rank per candidate per round
          during preprocessing, and relay proposals/confirmations. -- *)
    (match st.referee with
    | None -> ()
    | Some r ->
        if r.qhead < r.known_n && round < cal.pre_end then begin
          let rank = r.known.(r.qhead) in
          r.qhead <- r.qhead + 1;
          send_to_candidates send r (Known_rank { rank })
        end;
        if !prop_best > 0 then
          send_to_candidates send r (Relay { owner = !prop_owner; proposal = !prop_best });
        if !conf_best > 0 then
          send_to_candidates send r (Relay_confirm { owner = !conf_owner; proposal = !conf_best }));
    (* -- Candidate iteration phases. -- *)
    (match st.cand with
    | None -> ()
    | Some cand ->
        if len = 0 then cand.quiet_rounds <- cand.quiet_rounds + 1 else cand.quiet_rounds <- 0;
        if round >= cal.pre_end && round < cal.implicit_end then begin
          match (round - cal.pre_end) mod 4 with
          | 0 -> candidate_round_a send cand ~best:!crelay_best ~owner:!crelay_owner
          | 2 -> candidate_round_c send cand ~best:!relay_best ~owner:!relay_owner
          | 1 | 3 -> ()
          | _ -> assert false
        end;
        (* Early decision: a settled candidate that heard nothing for a few
           full iterations fixes its output, letting the engine stop on
           quiescence. Deciding does not halt the node. *)
        if
          st.decision = Decision.Undecided
          && cand.best_confirmed <> None
          && cand.quiet_rounds >= quiet_limit
        then finalize_decision st;
        if round = cal.implicit_end - 1 && st.decision = Decision.Undecided then
          finalize_decision st);
    (* -- Explicit extension: the leader tells everyone, through every
          known port and fresh ports for the unknown remainder. -- *)
    if C.explicit && st.decision = Decision.Elected && not st.announced then begin
      st.announced <- true;
      Fanout.broadcast send ~n:ctx.n ~ports:st.ports (Leader_announce { rank = st.rank })
    end;
    st

  (* Bystanders only react to deliveries. A referee acts on its own
     while it still has ranks to forward during preprocessing, and a
     candidate runs the whole implicit calendar; past it a candidate's
     step only moves the quiet-round counter, which nothing reads once
     the decision is fixed. *)
  let idle _ st ~round =
    match (st.cand, st.referee) with
    | Some _, _ -> round >= st.cal.implicit_end
    | None, Some r when r.qhead < r.known_n -> round >= st.cal.pre_end
    | None, (Some _ | None) -> true

  let decide st =
    if C.explicit && st.decision = Decision.Not_elected && st.leader_rank_seen = None then
      (* Explicit mode: a node that has not yet learned the leader's
         identity is still undecided. *)
      Decision.Undecided
    else st.decision

  (* Via [decide], so explicit-mode masking (a node that has not yet
     learnt the leader is still undecided) is reflected here too. Only
     candidates publish their rank: no message carries a non-candidate's
     rank and no adversary acts on one, so non-candidates share the
     unranked records and observing them allocates nothing. *)
  let observe st =
    let has_decided = decide st <> Decision.Undecided in
    if st.is_candidate then
      { Observation.role = Observation.Candidate; rank = Some st.rank; has_decided }
    else
      Observation.unranked
        (if st.referee <> None then Observation.Referee else Observation.Bystander)
        ~has_decided
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
