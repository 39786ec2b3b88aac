module Fast_protocol = Ftc_sim.Fast_protocol
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Congest = Ftc_sim.Congest
module Rng = Ftc_rng.Rng
module Dist = Ftc_rng.Dist
module ISet = Set.Make (Int)

(* Hand-written codec port of {!Leader_election}, bit-identical by the
   differential suite and 1.3-1.4x faster than the generic adapter at
   n = 10^5 (1.15-1.3x at n = 1000; DESIGN.md section 14).
   Codec (3 words per message):

     tag (w0 bits 0-2)   classic message      w1         w2
     0                   Announce             rank       -
     1                   Known_rank           rank       -
     2                   Propose              proposal   id
     3                   Relay                proposal   -
     4                   Confirm              proposal   id
     5                   Relay_confirm        proposal   -
     6                   Leader_announce      rank       -

   with the owner flag of Relay/Relay_confirm in w0 bit 3. Ranks are
   >= 1, so 0 serves as the None sentinel for pending/best_confirmed.

   Event-driven stepping is safe because every classic step this port
   skips is a no-op: a bystander or idle referee with an empty inbox
   emits nothing and changes nothing (the referee drain needs a
   non-empty queue, relays need inbox traffic), and candidates are
   kept active every round through implicit_end - 1, past which their
   remaining transitions (quiet_rounds bookkeeping after a decision is
   fixed) are unobservable. The classic port count always equals the
   engine's [port_count] — receiver-side ports are counted at every
   delivery, sender-side ports only open through round-0 fresh sends
   and the one-shot broadcast — so the explicit broadcast reads the
   engine's count instead of keeping one per node. *)

type cand = {
  id : int;
  mutable rank_list : ISet.t;  (* known, live-believed ranks, incl. own *)
  mutable retired : ISet.t;  (* ranks believed crashed *)
  mutable proposed : ISet.t;
  mutable supported : ISet.t;
  mutable best_confirmed : int;  (* 0 = none *)
  mutable marked_leader : bool;
  mutable pending : int;  (* 0 = none: rank awaiting confirmation *)
  mutable progress : bool;
  mutable quiet_rounds : int;
}

type referee = {
  mutable cand_ports : int array;  (* reply ports, arrival order *)
  mutable cand_n : int;
  mutable known : int array;  (* first-seen ranks, arrival order; the
                                 forwarding queue is known[qhead..] *)
  mutable known_n : int;
  mutable qhead : int;
}

module Make (C : sig
  val params : Params.t
  val explicit : bool
end) : Fast_protocol.S = struct
  let params = C.params

  let name = if C.explicit then "ft-leader-election-explicit" else "ft-leader-election"
  let knowledge = `KT0
  let words = 3

  let msg_bits ~n w0 =
    let rank = Congest.rank_bits ~n and tag = Congest.tag_bits in
    match w0 land 7 with
    | 0 | 1 | 6 -> tag + rank (* Announce / Known_rank / Leader_announce *)
    | 2 | 4 -> tag + (2 * rank) (* Propose / Confirm *)
    | _ -> tag + 1 + rank (* Relay / Relay_confirm *)

  let pre_end ~n ~alpha = 1 + Params.preprocessing_rounds params ~n ~alpha

  let implicit_rounds ~n ~alpha =
    pre_end ~n ~alpha + (4 * Params.iterations params ~n ~alpha) + 1

  let max_rounds ~n ~alpha =
    implicit_rounds ~n ~alpha + if C.explicit then 2 else 0

  let phases ~n ~alpha =
    [
      ("referee-selection", 0);
      ("rank-dissemination", 1);
      ("election-iterations", pre_end ~n ~alpha);
    ]
    @ if C.explicit then [ ("leader-broadcast", implicit_rounds ~n ~alpha) ] else []

  type t = {
    n : int;
    k : int;  (* referee_count, = every candidate's ports 0..k-1 *)
    pre_end : int;
    implicit_end : int;
    quiet_limit : int;
    rank : int array;
    cand : cand option array;
    referee : referee option array;
    dec : Bytes.t;  (* raw decision: 0 undec, 1 elected, 2 not, 3 follower *)
    leader_seen : int array;  (* -1 = none (explicit mode) *)
    announced : Bytes.t;
    rt : Fast_protocol.runtime;
  }

  let decide t i =
    match Bytes.get t.dec i with
    | '\000' -> Decision.Undecided
    | '\001' -> Decision.Elected
    | '\002' ->
        if C.explicit && t.leader_seen.(i) < 0 then Decision.Undecided
        else Decision.Not_elected
    | _ -> Decision.Follower t.leader_seen.(i)

  (* Only candidates publish their rank, as in {!Leader_election}. *)
  let compute_obs t i =
    let has_decided = decide t i <> Decision.Undecided in
    if t.cand.(i) <> None then
      { Observation.role = Observation.Candidate; rank = Some t.rank.(i); has_decided }
    else
      Observation.unranked
        (if t.referee.(i) <> None then Observation.Referee else Observation.Bystander)
        ~has_decided

  (* Run a mutation and report an Undecided -> decided crossing of the
     masked decision to the engine's quiescence counter. *)
  let with_note t i f =
    let before = decide t i <> Decision.Undecided in
    f ();
    if (not before) && decide t i <> Decision.Undecided then begin
      t.rt.Fast_protocol.obs.(i) <- compute_obs t i;
      t.rt.Fast_protocol.note_decided i
    end

  let observe t i = t.rt.Fast_protocol.obs.(i)

  let create ~n ~alpha ~inputs:_ ~node_rngs rt =
    let rank_bound = Params.rank_bound params ~n in
    let p = Params.candidate_prob params ~n ~alpha in
    let t =
      {
        n;
        k = Params.referee_count params ~n ~alpha;
        pre_end = pre_end ~n ~alpha;
        implicit_end = implicit_rounds ~n ~alpha;
        quiet_limit = 4 * params.Params.quiet_iterations_to_decide;
        rank = Array.make n 0;
        cand = Array.make n None;
        referee = Array.make n None;
        dec = Bytes.make n '\002';
        leader_seen = Array.make n (-1);
        announced = Bytes.make n '\000';
        rt;
      }
    in
    for i = 0 to n - 1 do
      let rng = node_rngs.(i) in
      let rank = Rng.int_in rng 1 rank_bound in
      t.rank.(i) <- rank;
      if Dist.bernoulli rng p then begin
        t.cand.(i) <-
          Some
            {
              id = rank;
              rank_list = ISet.singleton rank;
              retired = ISet.empty;
              proposed = ISet.empty;
              supported = ISet.empty;
              best_confirmed = 0;
              marked_leader = false;
              pending = 0;
              progress = false;
              quiet_rounds = 0;
            };
        Bytes.set t.dec i '\000';
        rt.Fast_protocol.wake i
      end
    done;
    for i = 0 to n - 1 do
      rt.Fast_protocol.obs.(i) <- compute_obs t i
    done;
    t

  let referee_of t i =
    match t.referee.(i) with
    | Some r -> r
    | None ->
        let r =
          { cand_ports = Array.make 4 0; cand_n = 0; known = Array.make 4 0; known_n = 0; qhead = 0 }
        in
        t.referee.(i) <- Some r;
        if t.cand.(i) = None then t.rt.Fast_protocol.obs.(i) <- compute_obs t i;
        r

  let push_cand_port r p =
    if r.cand_n = Array.length r.cand_ports then begin
      let a = Array.make (2 * r.cand_n) 0 in
      Array.blit r.cand_ports 0 a 0 r.cand_n;
      r.cand_ports <- a
    end;
    r.cand_ports.(r.cand_n) <- p;
    r.cand_n <- r.cand_n + 1

  let known_rank r rank =
    let rec mem j = j < r.known_n && (r.known.(j) = rank || mem (j + 1)) in
    mem 0

  let push_known r rank =
    if r.known_n = Array.length r.known then begin
      let a = Array.make (2 * r.known_n) 0 in
      Array.blit r.known 0 a 0 r.known_n;
      r.known <- a
    end;
    r.known.(r.known_n) <- rank;
    r.known_n <- r.known_n + 1

  let adopt_confirmed c rank =
    if c.best_confirmed = 0 || rank > c.best_confirmed then begin
      c.best_confirmed <- rank;
      c.rank_list <- ISet.add rank (ISet.filter (fun r -> r >= rank) c.rank_list);
      c.marked_leader <- rank = c.id;
      c.progress <- true;
      if c.pending <> 0 && c.pending <= rank then c.pending <- 0
    end
    else if c.best_confirmed = rank then c.progress <- true

  let note_rank c rank =
    if (not (ISet.mem rank c.retired)) && not (ISet.mem rank c.rank_list) then begin
      c.rank_list <- ISet.add rank c.rank_list;
      c.progress <- true
    end

  (* Candidate -> referee sends go out ports k-1 .. 0: the classic
     [send_to_ports] is a [rev_map] over referee_ports = [0 .. k-1]. *)
  let send_to_referees t ~id ~proposal ~tag =
    for p = t.k - 1 downto 0 do
      t.rt.Fast_protocol.emit_port p tag proposal id
    done

  (* Referee -> candidate sends go out in arrival order: the classic
     cand_ports list is built by consing, and [rev_map] flips it back. *)
  let send_to_cands t r ~tag ~owner ~w1 =
    let w0 = if owner then tag lor 8 else tag in
    for j = 0 to r.cand_n - 1 do
      t.rt.Fast_protocol.emit_port r.cand_ports.(j) w0 w1 0
    done

  let candidate_round_a t c ~have ~owner ~proposal:p =
    if have then
      if owner then adopt_confirmed c p
      else begin
        note_rank c p;
        if c.pending <> p then c.progress <- true
      end;
    (* Step-4 timeout: a pending rank that produced no confirmation and
       no other progress for a whole iteration is considered crashed. *)
    if c.pending <> 0 && (not c.progress) && c.pending <> c.id then begin
      c.retired <- ISet.add c.pending c.retired;
      c.rank_list <- ISet.remove c.pending c.rank_list;
      c.pending <- 0
    end;
    c.progress <- false;
    if c.best_confirmed = 0 then
      match ISet.min_elt_opt c.rank_list with
      | None -> ()
      | Some proposal ->
          if proposal = c.id then begin
            c.marked_leader <- true;
            c.pending <- proposal;
            if not (ISet.mem proposal c.proposed) then begin
              c.proposed <- ISet.add proposal c.proposed;
              send_to_referees t ~id:c.id ~proposal ~tag:2
            end
          end
          else if ISet.mem proposal c.proposed then c.pending <- proposal
          else begin
            c.proposed <- ISet.add proposal c.proposed;
            c.pending <- proposal;
            send_to_referees t ~id:c.id ~proposal ~tag:2
          end

  let candidate_round_c t c ~have ~owner ~proposal:p =
    if have then begin
      note_rank c p;
      if c.pending <> p || owner then c.progress <- true;
      if p = c.id then begin
        if not (c.best_confirmed > c.id) then begin
          let already = c.best_confirmed = c.id in
          adopt_confirmed c c.id;
          if not already then send_to_referees t ~id:c.id ~proposal:c.id ~tag:4
        end
      end
      else if owner then begin
        adopt_confirmed c p;
        if not (ISet.mem p c.supported) then begin
          c.supported <- ISet.add p c.supported;
          send_to_referees t ~id:c.id ~proposal:p ~tag:4
        end
      end
      else begin
        if c.pending < p then c.pending <- p;
        if (not (ISet.mem p c.supported)) && c.best_confirmed = 0 then begin
          c.supported <- ISet.add p c.supported;
          send_to_referees t ~id:c.id ~proposal:p ~tag:4
        end
      end
    end

  let finalize t i c =
    with_note t i (fun () ->
        Bytes.set t.dec i
          (if c.marked_leader && c.best_confirmed = c.id then '\001' else '\002'))

  let step t ~node:i ~round ~inbox_start ~inbox_count =
    let rt = t.rt in
    let iw = rt.Fast_protocol.inbox_words and ip = rt.Fast_protocol.inbox_port in
    (* -- Inbox: referee registration, rank intake, relay folding. The
          classic step conses relays/proposals and folds later; both
          folds are order-independent (max value, OR of owner flags at
          the max), so a forward fold gives the same result. -- *)
    let have_relay = ref false and relay_owner = ref false and relay_max = ref 0 in
    let have_crelay = ref false and crelay_owner = ref false and crelay_max = ref 0 in
    let have_prop = ref false and prop_owner = ref false and prop_max = ref 0 in
    let have_conf = ref false and conf_owner = ref false and conf_max = ref 0 in
    let fold have owner mx ~own ~v =
      if not !have then begin
        have := true;
        owner := own;
        mx := v
      end
      else if v > !mx then begin
        owner := own;
        mx := v
      end
      else if v = !mx then owner := !owner || own
    in
    for m = 0 to inbox_count - 1 do
      let idx = inbox_start + m in
      let base = idx * 3 in
      let w0 = iw.{base} in
      let w1 = iw.{base + 1} in
      match w0 land 7 with
      | 0 ->
          (* Announce *)
          let r = referee_of t i in
          push_cand_port r ip.(idx);
          if not (known_rank r w1) then push_known r w1
      | 1 -> ( (* Known_rank *)
          match t.cand.(i) with Some c -> note_rank c w1 | None -> ())
      | 2 ->
          let id = iw.{base + 2} in
          fold have_prop prop_owner prop_max ~own:(id = w1) ~v:w1
      | 3 -> fold have_relay relay_owner relay_max ~own:(w0 land 8 <> 0) ~v:w1
      | 4 ->
          let id = iw.{base + 2} in
          fold have_conf conf_owner conf_max ~own:(id = w1) ~v:w1
      | 5 -> fold have_crelay crelay_owner crelay_max ~own:(w0 land 8 <> 0) ~v:w1
      | _ ->
          (* Leader_announce *)
          with_note t i (fun () ->
              t.leader_seen.(i) <- w1;
              if Bytes.get t.dec i <> '\001' then Bytes.set t.dec i '\003')
    done;
    (* -- Candidate start-up: sample referees through fresh ports; the
          engine numbers them 0 .. k-1. -- *)
    (match t.cand.(i) with
    | Some c when round = 0 ->
        for _ = 1 to t.k do
          rt.Fast_protocol.emit_fresh 0 c.id 0
        done
    | Some _ | None -> ());
    (* -- Referee duties. -- *)
    (match t.referee.(i) with
    | None -> ()
    | Some r ->
        if r.qhead < r.known_n && round < t.pre_end then begin
          let rank = r.known.(r.qhead) in
          r.qhead <- r.qhead + 1;
          send_to_cands t r ~tag:1 ~owner:false ~w1:rank
        end;
        if !have_prop then send_to_cands t r ~tag:3 ~owner:!prop_owner ~w1:!prop_max;
        if !have_conf then send_to_cands t r ~tag:5 ~owner:!conf_owner ~w1:!conf_max);
    (* -- Candidate iteration phases. -- *)
    (match t.cand.(i) with
    | None -> ()
    | Some c ->
        if inbox_count = 0 then c.quiet_rounds <- c.quiet_rounds + 1 else c.quiet_rounds <- 0;
        if round >= t.pre_end && round < t.implicit_end then
          (match (round - t.pre_end) mod 4 with
          | 0 -> candidate_round_a t c ~have:!have_crelay ~owner:!crelay_owner ~proposal:!crelay_max
          | 2 -> candidate_round_c t c ~have:!have_relay ~owner:!relay_owner ~proposal:!relay_max
          | _ -> ());
        if
          Bytes.get t.dec i = '\000'
          && c.best_confirmed <> 0
          && c.quiet_rounds >= t.quiet_limit
        then finalize t i c;
        if round = t.implicit_end - 1 && Bytes.get t.dec i = '\000' then finalize t i c);
    (* -- Explicit extension: the leader tells everyone — every known
          port (descending: classic rev_maps the ascending element list
          of known_ports = {0 .. port_count-1}), then fresh ports for
          the unknown remainder. -- *)
    if C.explicit && Bytes.get t.dec i = '\001' && Bytes.get t.announced i = '\000' then begin
      Bytes.set t.announced i '\001';
      let cnt = rt.Fast_protocol.port_count i in
      let rank = t.rank.(i) in
      for p = cnt - 1 downto 0 do
        rt.Fast_protocol.emit_port p 6 rank 0
      done;
      for _ = 1 to t.n - 1 - cnt do
        rt.Fast_protocol.emit_fresh 6 rank 0
      done
    end;
    (* -- Self-wakes: candidates step every round through the forced
          finalize; referees keep draining their queue. -- *)
    if t.cand.(i) <> None && round + 1 < t.implicit_end then rt.Fast_protocol.wake i;
    match t.referee.(i) with
    | Some r when r.qhead < r.known_n && round + 1 < t.pre_end -> rt.Fast_protocol.wake i
    | Some _ | None -> ()
end

let make ?(explicit = false) params =
  (module Make (struct
    let params = params
    let explicit = explicit
  end) : Fast_protocol.S)
