type kind = Election | Agreement

type input_kind = No_inputs | Bits | Values of int

type entry = {
  name : string;
  make : unit -> (module Ftc_sim.Protocol.S);
  fast : (unit -> (module Ftc_sim.Fast_protocol.S)) option;
  kind : kind;
  explicit : bool;
  inputs : input_kind;
  crash_tolerant : bool;
  quiesces : bool;
}

let params = Ftc_core.Params.default

let all =
  [
    {
      name = "ft-leader-election";
      make = (fun () -> Ftc_core.Leader_election.make params);
      fast = Some (fun () -> Ftc_core.Leader_election_fast.make params);
      kind = Election;
      explicit = false;
      inputs = No_inputs;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "ft-leader-election-explicit";
      make = (fun () -> Ftc_core.Leader_election.make ~explicit:true params);
      fast = Some (fun () -> Ftc_core.Leader_election_fast.make ~explicit:true params);
      kind = Election;
      explicit = true;
      inputs = No_inputs;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "ft-agreement";
      make = (fun () -> Ftc_core.Agreement.make params);
      fast = None;
      kind = Agreement;
      explicit = false;
      inputs = Bits;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "ft-agreement-explicit";
      make = (fun () -> Ftc_core.Agreement.make ~explicit:true params);
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "ft-min-agreement";
      make = (fun () -> Ftc_core.Min_agreement.make params);
      fast = None;
      kind = Agreement;
      explicit = false;
      inputs = Values 50;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "floodset";
      make = (fun () -> Ftc_baselines.Floodset.make ());
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "rotating-coordinator";
      make = (fun () -> Ftc_baselines.Rotating.make ());
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = true;
      quiesces = true;
    };
    {
      name = "push-gossip";
      make = (fun () -> Ftc_baselines.Gossip.make ());
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = false;
      quiesces = true;
    };
    {
      name = "tree-agreement";
      make = (fun () -> Ftc_baselines.Tree_agreement.make ());
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = false;
      quiesces = true;
    };
    {
      name = "kutten-leader-election";
      make = (fun () -> Ftc_baselines.Kutten_le.make ());
      fast = None;
      kind = Election;
      explicit = false;
      inputs = No_inputs;
      crash_tolerant = false;
      quiesces = true;
    };
    {
      name = "amp-agreement";
      make = (fun () -> Ftc_baselines.Amp_agreement.make ());
      fast = None;
      kind = Agreement;
      explicit = false;
      inputs = Bits;
      crash_tolerant = false;
      quiesces = true;
    };
  ]

(* A deliberately broken protocol: declares KT0 but addresses by node id
   in round 0, so the engine reports one [Kt0_node_addressing] violation
   per node on every seed. It exists to exercise the failure path end to
   end — sweep supervision, quarantine, replay — deterministically, the
   way a real model bug would. *)
module Faulty_probe = struct
  type state = unit
  type msg = unit

  let name = "faulty-probe"
  let knowledge = `KT0
  let msg_bits ~n:_ () = 1
  let max_rounds ~n:_ ~alpha:_ = 2
  let phases = Ftc_sim.Protocol.single_phase
  let init _ = ()

  let step _ () ~round ~inbox:_ ~(send : msg Ftc_sim.Protocol.send) =
    if round = 0 then send.node 0 ()

  let idle = Ftc_sim.Protocol.never_idle
  let decide () = Ftc_sim.Decision.Agreed 0

  let observe () =
    { Ftc_sim.Observation.role = Ftc_sim.Observation.Bystander; rank = None; has_decided = true }
end

(* A deliberately crash-*fragile* binary agreement protocol: correct in
   every fault-free run, deterministically wrong under partial round-0
   delivery. Round 0 each node broadcasts its input bit; round 1 each
   node computes the minimum bit it has seen and a tally of received
   messages, then decides that minimum when the tally is full (n - 1)
   and the complement otherwise. Fault-free every node sees everything
   and agrees on the global minimum (valid). A round-0 crash keeping a
   k-message prefix (0 < k < n - 1) splits the live nodes into full-tally
   and short-tally groups that decide opposite bits — and crash-drop-all
   on all-equal inputs makes everyone decide the complement of every
   input, violating validity. The verifier's demo target: its minimal
   counterexample (one crash, round 0, keep-prefix 1, all-zero inputs)
   sits at the very front of the BFS order, and no later schedule or
   relabelling fails differently, so the exhaustive sweep is cheap to
   pin in tests and CI. *)
module Crash_probe = struct
  type state = { n : int; input : int; tally : int option; min_seen : int }
  type msg = int

  let name = "crash-probe"
  let knowledge = `KT0
  let msg_bits ~n:_ _ = 1
  let max_rounds ~n:_ ~alpha:_ = 3
  let phases = Ftc_sim.Protocol.single_phase

  let init (ctx : Ftc_sim.Protocol.ctx) =
    let input = ctx.input land 1 in
    { n = ctx.n; input; tally = None; min_seen = input }

  let step _ st ~round ~inbox ~(send : msg Ftc_sim.Protocol.send) =
    match round with
    | 0 ->
        for _ = 1 to st.n - 1 do
          send.fresh st.input
        done;
        st
    | 1 ->
        let tally = Ftc_sim.Protocol.Inbox.length inbox in
        let min_seen = ref st.min_seen in
        for k = 0 to tally - 1 do
          min_seen := min !min_seen (Ftc_sim.Protocol.Inbox.payload inbox k)
        done;
        { st with tally = Some tally; min_seen = !min_seen }
    | _ -> st

  let idle = Ftc_sim.Protocol.never_idle
  let decide st =
    match st.tally with
    | None -> Ftc_sim.Decision.Undecided
    | Some t ->
        Ftc_sim.Decision.Agreed (if t = st.n - 1 then st.min_seen else 1 - st.min_seen)

  let observe st =
    {
      Ftc_sim.Observation.role = Ftc_sim.Observation.Bystander;
      rank = None;
      has_decided = st.tally <> None;
    }
end

(* Runnable via [find] (so [ftc sweep]/[ftc replay] can name them) but
   deliberately NOT in [all]: the fuzzer cycles deterministically through
   [all], and growing that list would silently reshuffle every recorded
   fuzz stream. *)
let extras =
  [
    {
      name = "faulty-probe";
      make = (fun () -> (module Faulty_probe : Ftc_sim.Protocol.S));
      fast = None;
      kind = Agreement;
      explicit = true;
      inputs = Bits;
      crash_tolerant = false;
      quiesces = true;
    };
    {
      name = "crash-probe";
      make = (fun () -> (module Crash_probe : Ftc_sim.Protocol.S));
      fast = None;
      kind = Agreement;
      explicit = false;
      inputs = Bits;
      crash_tolerant = true;
      quiesces = true;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) (all @ extras)

let names () = List.map (fun e -> e.name) (all @ extras)

(* Same xor tweak as [Ftc_expt.Runner.materialize_inputs]: inputs come
   from a stream distinct from the engine's own coins for the seed. *)
let gen_inputs entry ~n ~seed =
  let rng = Ftc_rng.Rng.create (seed lxor 0x5bd1e995) in
  match entry.inputs with
  | No_inputs -> Array.make n 0
  | Bits -> Array.init n (fun _ -> if Ftc_rng.Rng.bool rng then 1 else 0)
  | Values bound -> Array.init n (fun _ -> Ftc_rng.Rng.int rng (bound + 1))
