(* Tests for the round engine: port semantics, delivery timing, crash
   rules, CONGEST accounting, model-violation reporting, determinism, and
   early stopping. Each test uses a purpose-built micro-protocol. *)

module Protocol = Ftc_sim.Protocol
module Engine = Ftc_sim.Engine
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Adversary = Ftc_sim.Adversary
module Trace = Ftc_sim.Trace

let base_config ?(n = 16) ?(seed = 42) () = Engine.default_config ~n ~alpha:1.0 ~seed

(* A protocol where nodes with input 1 ("pingers") open [fan] fresh ports
   in round 0 and expect one reply per port in round 2, through the same
   port numbers the engine allocated. Receivers reply through the port
   the ping arrived on and record how many pings they saw. *)
module Ping_pong = struct
  type msg = Ping | Pong

  type state = {
    pinger : bool;
    fan : int;
    mutable pings_seen : int;
    mutable pongs_seen : int;
    mutable pong_ports_ok : bool;
    mutable decision : Decision.t;
  }

  let name = "ping-pong"
  let knowledge = `KT0
  let msg_bits ~n:_ _ = 5
  let max_rounds ~n:_ ~alpha:_ = 4
  let phases = Protocol.single_phase

  let init (ctx : Protocol.ctx) =
    {
      pinger = ctx.input > 0;
      fan = (if ctx.input > 0 then ctx.input else 0);
      pings_seen = 0;
      pongs_seen = 0;
      pong_ports_ok = true;
      decision = Decision.Undecided;
    }

  let step (_ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    (* Replies go out newest ping first. *)
    let replies = ref [] in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let from_port = Protocol.Inbox.port inbox k in
      match Protocol.Inbox.payload inbox k with
      | Ping ->
          st.pings_seen <- st.pings_seen + 1;
          replies := from_port :: !replies
      | Pong ->
          st.pongs_seen <- st.pongs_seen + 1;
          if from_port < 0 || from_port >= st.fan then st.pong_ports_ok <- false
    done;
    if st.pinger && round = 0 then
      for _ = 1 to st.fan do
        send.fresh Ping
      done
    else List.iter (fun p -> send.port p Pong) !replies;
    if round = 3 then st.decision <- Decision.Agreed (st.pongs_seen + (1000 * st.pings_seen));
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    { Observation.bystander with has_decided = st.decision <> Decision.Undecided }
end

let test_ping_pong_roundtrip () =
  let module E = Engine.Make (Ping_pong) in
  let n = 16 in
  let fan = 5 in
  let inputs = Array.make n 0 in
  inputs.(3) <- fan;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs } in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  (* The pinger got exactly [fan] pongs, each on one of its fan ports. *)
  (match r.decisions.(3) with
  | Decision.Agreed v -> Alcotest.(check int) "pinger: 5 pongs, 0 pings" fan v
  | d -> Alcotest.failf "unexpected decision %s" (Decision.to_string d));
  (* Exactly [fan] distinct receivers each saw exactly one ping. *)
  let receivers = ref 0 in
  Array.iteri
    (fun i d ->
      if i <> 3 then
        match d with
        | Decision.Agreed v when v >= 1000 ->
            incr receivers;
            Alcotest.(check int) "one ping each" 1000 v
        | Decision.Agreed 0 -> ()
        | d -> Alcotest.failf "unexpected receiver decision %s" (Decision.to_string d))
    r.decisions;
  Alcotest.(check int) "fresh ports hit distinct peers" fan !receivers;
  Alcotest.(check int) "messages counted" (2 * fan) r.metrics.msgs_sent;
  Alcotest.(check int) "bits counted" (2 * fan * 5) r.metrics.bits_sent

let test_fresh_ports_cover_everyone () =
  let module E = Engine.Make (Ping_pong) in
  let n = 12 in
  let inputs = Array.make n 0 in
  inputs.(0) <- n - 1;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs } in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  Array.iteri
    (fun i d ->
      if i <> 0 then
        match d with
        | Decision.Agreed 1000 -> ()
        | d -> Alcotest.failf "node %d missed its ping: %s" i (Decision.to_string d))
    r.decisions

(* A beacon sends one message to a fresh port every round. Used for crash
   semantics: sent/dropped counts and post-crash silence. *)
module Beacon = struct
  type msg = Blip
  type state = { active : bool; mutable got : int; mutable decision : Decision.t }

  let name = "beacon"
  let knowledge = `KT0
  let msg_bits ~n:_ Blip = 3
  let max_rounds ~n:_ ~alpha:_ = 6
  let phases = Protocol.single_phase

  let init (ctx : Protocol.ctx) =
    { active = ctx.input > 0; got = 0; decision = Decision.Undecided }

  let step (_ : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    st.got <- st.got + Protocol.Inbox.length inbox;
    if st.active then
      for _ = 1 to if round = 0 then 4 else 1 do
        send.fresh Blip
      done;
    if round = 5 then st.decision <- Decision.Agreed st.got;
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    { Observation.bystander with has_decided = st.decision <> Decision.Undecided }
end

let run_beacon ~plan =
  let module E = Engine.Make (Beacon) in
  let n = 32 in
  let inputs = Array.make n 0 in
  inputs.(7) <- 1;
  E.run
    {
      (base_config ~n ~seed:9 ()) with
      alpha = 0.5;
      inputs = Some inputs;
      adversary = Ftc_fault.Strategy.scheduled plan ();
      trace = Trace.Log;
    }

let test_crash_drop_all () =
  let r = run_beacon ~plan:[ (7, 2, Adversary.Drop_all) ] in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  Alcotest.(check bool) "crashed" true r.crashed.(7);
  Alcotest.(check int) "crash round recorded" 2 r.crash_round.(7);
  (* Rounds 0 (4 msgs), 1 (1 msg), 2 (1 msg, dropped); then silence. *)
  Alcotest.(check int) "sent counts dropped msg" 6 r.metrics.msgs_sent;
  Alcotest.(check int) "exactly the crash-round msg dropped" 1 r.metrics.msgs_dropped;
  (* Delivered blips = 5. *)
  let delivered =
    Array.fold_left
      (fun acc d -> match d with Decision.Agreed v -> acc + v | _ -> acc)
      0 r.decisions
  in
  Alcotest.(check int) "5 blips delivered" 5 delivered

let test_crash_keep_prefix () =
  let r = run_beacon ~plan:[ (7, 0, Adversary.Keep_prefix 2) ] in
  Alcotest.(check int) "4 sent in round 0" 4 r.metrics.msgs_sent;
  Alcotest.(check int) "2 dropped" 2 r.metrics.msgs_dropped

let test_crash_drop_none () =
  let r = run_beacon ~plan:[ (7, 1, Adversary.Drop_none) ] in
  Alcotest.(check int) "rounds 0+1 sent" 5 r.metrics.msgs_sent;
  Alcotest.(check int) "nothing dropped" 0 r.metrics.msgs_dropped

let test_timed_out_flag () =
  (* The beacon still has a message in flight when its round budget runs
     out, so the cut-off is real. *)
  let r = run_beacon ~plan:[] in
  Alcotest.(check bool) "beacon times out" true r.timed_out;
  (* Ping-pong goes quiet after round 2 and decides inside the budget. *)
  let module E = Engine.Make (Ping_pong) in
  let n = 16 in
  let inputs = Array.make n 0 in
  inputs.(3) <- 2;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs } in
  Alcotest.(check bool) "quiescent run does not" false r.timed_out

(* Logged events satisfying [p]. *)
let count p t = Trace.fold (fun acc e -> if p e then acc + 1 else acc) 0 t

let test_trace_records_crash_and_sends () =
  let r = run_beacon ~plan:[ (7, 2, Adversary.Drop_all) ] in
  match r.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some t ->
      Alcotest.(check int) "one crash event" 1
        (count (function Trace.Crash { node = 7; round = 2 } -> true | _ -> false) t);
      Alcotest.(check int) "all sends traced" 6
        (count (function Trace.Send _ -> true | _ -> false) t);
      Alcotest.(check int) "lost send traced" 1
        (count (function Trace.Send { delivered = false; _ } -> true | _ -> false) t)

(* -- omission-fault link stage -- *)

let test_link_total_loss_balanced () =
  let module E = Engine.Make (Beacon) in
  let n = 32 in
  let inputs = Array.make n 0 in
  inputs.(7) <- 1;
  let r =
    E.run
      {
        (base_config ~n ~seed:9 ()) with
        inputs = Some inputs;
        link = Ftc_fault.Omission.lossy_uniform ~rate:1.0 ();
        trace = Trace.Log;
      }
  in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  (* Rounds 0..5: 4 + 1 + 1 + 1 + 1 + 1 sends, all eaten by the link. *)
  Alcotest.(check int) "sends still counted" 9 r.metrics.msgs_sent;
  Alcotest.(check int) "all lost on the link" 9 r.metrics.msgs_lost_link;
  Alcotest.(check int) "crash drops distinct from link losses" 0 r.metrics.msgs_dropped;
  let got =
    Array.fold_left
      (fun acc d -> match d with Decision.Agreed v -> acc + v | _ -> acc)
      0 r.decisions
  in
  Alcotest.(check int) "nothing delivered" 0 got;
  match r.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some t ->
      let undelivered =
        count (function Trace.Send { delivered = false; _ } -> true | _ -> false) t
      in
      let link_lost = count (function Trace.Link_lost _ -> true | _ -> false) t in
      Alcotest.(check int) "every send traced undelivered" 9 undelivered;
      Alcotest.(check int) "every loss has a Link_lost marker" 9 link_lost

let test_link_partial_loss_reconciles () =
  let module E = Engine.Make (Beacon) in
  let n = 32 in
  let inputs = Array.make n 1 in
  let r =
    E.run
      {
        (base_config ~n ~seed:4 ()) with
        inputs = Some inputs;
        link = Ftc_fault.Omission.lossy_uniform ~rate:0.5 ();
        trace = Trace.Log;
      }
  in
  Alcotest.(check bool) "some messages lost" true (r.metrics.msgs_lost_link > 0);
  Alcotest.(check bool) "some messages survive" true
    (r.metrics.msgs_lost_link < r.metrics.msgs_sent);
  match r.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some t ->
      let sends = ref 0 and undelivered = ref 0 and link_lost = ref 0 in
      Trace.iter
        (function
          | Trace.Send { delivered; _ } ->
              incr sends;
              if not delivered then incr undelivered
          | Trace.Link_lost _ -> incr link_lost
          | Trace.Crash _ | Trace.Queue_dropped _ | Trace.Ecn_marked _ | Trace.Unroutable _ ->
              ())
        t;
      Alcotest.(check int) "sends match metrics" r.metrics.msgs_sent !sends;
      Alcotest.(check int) "losses match metrics" r.metrics.msgs_lost_link !link_lost;
      Alcotest.(check int) "undelivered = drops + link losses"
        (r.metrics.msgs_dropped + r.metrics.msgs_lost_link)
        !undelivered

let test_link_determinism_and_reliable_stream_unchanged () =
  (* Same seed, same lossy link model -> identical executions; and the
     explicit reliable link is the exact default-config behaviour. *)
  let module E = Engine.Make (Beacon) in
  let n = 24 in
  let inputs = Array.make n 1 in
  let run link =
    E.run { (base_config ~n ~seed:21 ()) with inputs = Some inputs; link }
  in
  let a = run (Ftc_fault.Omission.lossy_burst ~rate:0.3 ~mean_len:3. ()) in
  let b = run (Ftc_fault.Omission.lossy_burst ~rate:0.3 ~mean_len:3. ()) in
  Alcotest.(check int) "same losses" a.metrics.msgs_lost_link b.metrics.msgs_lost_link;
  Alcotest.(check int) "same msgs" a.metrics.msgs_sent b.metrics.msgs_sent;
  let plain = run Ftc_sim.Link.reliable in
  Alcotest.(check int) "reliable = paper model, no losses" 0 plain.metrics.msgs_lost_link

(* Opens more fresh ports than the other n-1 nodes can supply; the excess
   sends must be counted and traced, never silently swallowed. *)
let test_unroutable_fresh_sends_counted () =
  let module E = Engine.Make (Ping_pong) in
  let n = 4 in
  let fan = 7 in
  let inputs = Array.make n 0 in
  inputs.(3) <- fan;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs; trace = Trace.Log } in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  (* n-1 = 3 pings routable (plus 3 pongs back); 4 pings unroutable. *)
  Alcotest.(check int) "unroutable counted" (fan - (n - 1)) r.metrics.msgs_unroutable;
  Alcotest.(check int) "routable sends counted" (2 * (n - 1)) r.metrics.msgs_sent;
  match r.trace with
  | None -> Alcotest.fail "trace requested but absent"
  | Some t ->
      Alcotest.(check int) "unroutable events traced" (fan - (n - 1))
        (count (function Trace.Unroutable { node = 3; _ } -> true | _ -> false) t)

let test_adversary_cannot_crash_non_faulty () =
  let module E = Engine.Make (Beacon) in
  let n = 8 in
  let bad_adversary =
    {
      Adversary.name = "bad";
      pick_faulty = (fun _ ~n:_ ~f:_ -> [ 1 ]);
      decide_crashes =
        (fun _ view -> if view.Adversary.round = 0 then [ (2, Adversary.Drop_all) ] else []);
    }
  in
  let r =
    E.run { (base_config ~n ()) with alpha = 0.5; adversary = bad_adversary }
  in
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (function Ftc_sim.Violation.Crash_non_faulty { node = 2; _ } -> true | _ -> false)
       r.violations);
  Alcotest.(check bool) "node 2 not crashed" false r.crashed.(2)

let test_adversary_budget_enforced () =
  let module E = Engine.Make (Beacon) in
  let greedy =
    {
      Adversary.name = "greedy";
      pick_faulty = (fun _ ~n ~f:_ -> List.init n Fun.id);
      decide_crashes = (fun _ _ -> []);
    }
  in
  let r = E.run { (base_config ~n:10 ()) with alpha = 0.5; adversary = greedy } in
  Alcotest.(check bool) "over-budget faulty set reported" true
    (List.exists
       (function Ftc_sim.Violation.Faulty_budget_exceeded _ -> true | _ -> false)
       r.violations)

(* KT0 protocol that illegally addresses by node id. *)
module Illegal_kt0 = struct
  type msg = M
  type state = unit

  let name = "illegal-kt0"
  let knowledge = `KT0
  let msg_bits ~n:_ M = 1
  let max_rounds ~n:_ ~alpha:_ = 2
  let phases = Protocol.single_phase
  let init _ = ()

  let step (_ : Protocol.ctx) () ~round ~inbox:_ ~(send : msg Protocol.send) =
    if round = 0 then send.node 0 M

  let idle = Protocol.never_idle
  let decide () = Decision.Agreed 0
  let observe () = Observation.bystander
end

let test_kt0_node_addressing_rejected () =
  let module E = Engine.Make (Illegal_kt0) in
  let r = E.run (base_config ~n:4 ()) in
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (function Ftc_sim.Violation.Kt0_node_addressing _ -> true | _ -> false)
       r.violations);
  Alcotest.(check int) "nothing sent" 0 r.metrics.msgs_sent

(* Protocol that sends through a port it never opened. *)
module Bad_port = struct
  type msg = M
  type state = unit

  let name = "bad-port"
  let knowledge = `KT0
  let msg_bits ~n:_ M = 1
  let max_rounds ~n:_ ~alpha:_ = 2
  let phases = Protocol.single_phase
  let init _ = ()

  let step (_ : Protocol.ctx) () ~round ~inbox:_ ~(send : msg Protocol.send) =
    if round = 0 then send.port 99 M

  let idle = Protocol.never_idle
  let decide () = Decision.Agreed 0
  let observe () = Observation.bystander
end

let test_unknown_port_rejected () =
  let module E = Engine.Make (Bad_port) in
  let r = E.run (base_config ~n:4 ()) in
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (function Ftc_sim.Violation.Unknown_port { port = 99; _ } -> true | _ -> false)
       r.violations);
  Alcotest.(check int) "nothing sent" 0 r.metrics.msgs_sent

(* Oversized messages must trip the CONGEST accounting. *)
module Fat_messages = struct
  type msg = M
  type state = unit

  let name = "fat"
  let knowledge = `KT0
  let msg_bits ~n (M) = 100 * Ftc_sim.Congest.default_limit ~n
  let max_rounds ~n:_ ~alpha:_ = 2
  let phases = Protocol.single_phase
  let init _ = ()

  let step (_ : Protocol.ctx) () ~round ~inbox:_ ~(send : msg Protocol.send) =
    if round = 0 then send.fresh M

  let idle = Protocol.never_idle
  let decide () = Decision.Agreed 0
  let observe () = Observation.bystander
end

let test_congest_violation_detected () =
  let module E = Engine.Make (Fat_messages) in
  let n = 8 in
  let r = E.run (base_config ~n ()) in
  Alcotest.(check int) "each node trips once" n r.metrics.congest_violations;
  let local = E.run { (base_config ~n ()) with congest_limit = None } in
  Alcotest.(check int) "LOCAL model has no budget" 0 local.metrics.congest_violations

(* Decides instantly and stays silent: the engine must stop early. *)
module Instant = struct
  type msg = unit
  type state = unit

  let name = "instant"
  let knowledge = `KT0
  let msg_bits ~n:_ () = 1
  let max_rounds ~n:_ ~alpha:_ = 1000
  let phases = Protocol.single_phase
  let init _ = ()
  let step (_ : Protocol.ctx) () ~round:_ ~inbox:_ ~send:_ = ()
  let idle = Protocol.never_idle
  let decide () = Decision.Agreed 7
  let observe () = { Observation.bystander with has_decided = true }
end

let test_early_stop_on_quiescence () =
  let module E = Engine.Make (Instant) in
  let r = E.run (base_config ~n:64 ()) in
  Alcotest.(check int) "stops after one round" 1 r.rounds_used

(* KT1 protocol echoing its own identity. *)
module Know_thyself = struct
  type msg = unit
  type state = int

  let name = "know-thyself"
  let knowledge = `KT1
  let msg_bits ~n:_ () = 1
  let max_rounds ~n:_ ~alpha:_ = 1
  let phases = Protocol.single_phase

  let init (ctx : Protocol.ctx) =
    match ctx.self with Some s -> s | None -> Alcotest.fail "KT1 ctx lacks self"

  let step (_ : Protocol.ctx) s ~round:_ ~inbox:_ ~send:_ = s
  let idle = Protocol.never_idle
  let decide s = Decision.Agreed s
  let observe _ = { Observation.bystander with has_decided = true }
end

let test_kt1_self_identity () =
  let module E = Engine.Make (Know_thyself) in
  let n = 20 in
  let r = E.run (base_config ~n ()) in
  Array.iteri
    (fun i d -> Alcotest.(check bool) "self id" true (Decision.equal d (Decision.Agreed i)))
    r.decisions

(* A pinger that reuses the same fresh port twice; the receiver must see
   both pings through one stable local port. *)
module Double_ping = struct
  type msg = Dping

  type state = {
    pinger : bool;
    mutable ports_seen : int list;
    mutable decision : Decision.t;
  }

  let name = "double-ping"
  let knowledge = `KT0
  let msg_bits ~n:_ Dping = 2
  let max_rounds ~n:_ ~alpha:_ = 4
  let phases = Protocol.single_phase

  let init (ctx : Protocol.ctx) =
    { pinger = ctx.input > 0; ports_seen = []; decision = Decision.Undecided }

  let step (_ : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      st.ports_seen <- Protocol.Inbox.port inbox k :: st.ports_seen
    done;
    if st.pinger && round = 0 then send.fresh Dping
    else if st.pinger && round = 1 then send.port 0 Dping;
    if round = 3 then
      st.decision <-
        (match st.ports_seen with
        | [ a; b ] when a = b -> Decision.Agreed 1 (* same stable port *)
        | [] -> Decision.Agreed 0
        | _ -> Decision.Agreed (-1));
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    { Observation.bystander with has_decided = st.decision <> Decision.Undecided }
end

let test_port_stability_across_rounds () =
  let module E = Engine.Make (Double_ping) in
  let n = 8 in
  let inputs = Array.make n 0 in
  inputs.(2) <- 1;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs } in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  let receivers =
    Array.to_list r.decisions
    |> List.filter (fun d -> Decision.equal d (Decision.Agreed 1))
  in
  Alcotest.(check int) "one receiver, stable port" 1 (List.length receivers);
  Alcotest.(check bool) "no split-port receiver" false
    (Array.exists (fun d -> Decision.equal d (Decision.Agreed (-1))) r.decisions)

let test_local_and_congest_count_equally () =
  (* The CONGEST limit only flags violations; message/bit complexity must
     be identical in LOCAL mode for a compliant protocol. *)
  let params = Ftc_core.Params.default in
  let (module P) = Ftc_core.Agreement.make params in
  let module E = Engine.Make (P) in
  let inputs = Array.init 64 (fun i -> i mod 2) in
  let congest =
    E.run { (Engine.default_config ~n:64 ~alpha:0.8 ~seed:3) with inputs = Some inputs }
  in
  let local =
    E.run
      { (Engine.default_config ~n:64 ~alpha:0.8 ~seed:3) with
        inputs = Some inputs;
        congest_limit = None
      }
  in
  Alcotest.(check int) "same messages" congest.metrics.msgs_sent local.metrics.msgs_sent;
  Alcotest.(check int) "same bits" congest.metrics.bits_sent local.metrics.bits_sent;
  Alcotest.(check int) "compliant protocol never flagged" 0 congest.metrics.congest_violations

let test_observations_report_roles () =
  let params = Ftc_core.Params.default in
  let (module P) = Ftc_core.Leader_election.make params in
  let module E = Engine.Make (P) in
  let r = E.run (Engine.default_config ~n:128 ~alpha:0.8 ~seed:5) in
  let candidates =
    Array.fold_left
      (fun acc (o : Observation.t) ->
        if o.Observation.role = Observation.Candidate then acc + 1 else acc)
      0 r.observations
  in
  Alcotest.(check bool)
    (Printf.sprintf "plausible candidate count (%d)" candidates)
    true
    (candidates >= 2 && candidates < 128);
  Array.iter
    (fun (o : Observation.t) ->
      if o.Observation.role = Observation.Candidate then
        Alcotest.(check bool) "candidates expose ranks" true (o.Observation.rank <> None))
    r.observations

let test_determinism () =
  let params = Ftc_core.Params.default in
  let (module P) = Ftc_core.Leader_election.make params in
  let module E = Engine.Make (P) in
  let cfg =
    { (Engine.default_config ~n:128 ~alpha:0.6 ~seed:77) with
      adversary = Ftc_fault.Strategy.random_crashes ()
    }
  in
  let r1 = E.run cfg in
  let cfg2 =
    { (Engine.default_config ~n:128 ~alpha:0.6 ~seed:77) with
      adversary = Ftc_fault.Strategy.random_crashes ()
    }
  in
  let r2 = E.run cfg2 in
  Alcotest.(check int) "same messages" r1.metrics.msgs_sent r2.metrics.msgs_sent;
  Alcotest.(check int) "same rounds" r1.rounds_used r2.rounds_used;
  Array.iteri
    (fun i d -> Alcotest.(check bool) "same decision" true (Decision.equal d r2.decisions.(i)))
    r1.decisions

let test_max_faulty () =
  Alcotest.(check int) "half" 50 (Engine.max_faulty ~n:100 ~alpha:0.5);
  Alcotest.(check int) "none at alpha 1" 0 (Engine.max_faulty ~n:100 ~alpha:1.0);
  Alcotest.(check int) "almost all" 99 (Engine.max_faulty ~n:100 ~alpha:0.01);
  Alcotest.(check int) "ceil of alpha n" 4 (Engine.max_faulty ~n:10 ~alpha:0.55)

let test_bad_inputs_rejected () =
  let module E = Engine.Make (Instant) in
  Alcotest.check_raises "short inputs"
    (Invalid_argument "Engine.run: inputs length <> n")
    (fun () -> ignore (E.run { (base_config ~n:8 ()) with inputs = Some [| 1 |] }));
  Alcotest.check_raises "tiny network" (Invalid_argument "Engine.run: need at least 2 nodes")
    (fun () -> ignore (E.run (base_config ~n:1 ())))

let qcheck_engine_deterministic =
  QCheck.Test.make ~name:"engine is a pure function of the seed" ~count:20
    QCheck.(pair (int_range 0 10_000) (int_range 8 64))
    (fun (seed, n) ->
      let module E = Engine.Make (Beacon) in
      let inputs = Array.make n 1 in
      let run () =
        E.run
          { (Engine.default_config ~n ~alpha:0.7 ~seed) with
            inputs = Some inputs;
            adversary = Ftc_fault.Strategy.random_crashes ()
          }
      in
      let a = run () and b = run () in
      a.metrics.msgs_sent = b.metrics.msgs_sent
      && a.metrics.bits_sent = b.metrics.bits_sent
      && a.crashed = b.crashed)

(* A KT1 protocol pinning the inbox arrival-order contract the delivery
   refactor must preserve: messages arrive grouped by ascending sender id,
   and within one sender in the order its step sent them. Every
   node with a non-zero input [v] sends [v*10], [v*10+1] to node 1 in
   round 0; node 1 folds its round-1 inbox into a digit string. *)
module Inbox_order = struct
  type msg = int
  type state = { mutable folded : int; mutable decision : Decision.t }

  let name = "inbox-order"
  let knowledge = `KT1
  let msg_bits ~n:_ _ = 8
  let max_rounds ~n:_ ~alpha:_ = 3
  let phases = Protocol.single_phase
  let init _ctx = { folded = 0; decision = Decision.Undecided }

  let step (ctx : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      st.folded <- (st.folded * 100) + Protocol.Inbox.payload inbox k
    done;
    if round = 0 && ctx.input > 0 && ctx.self <> Some 1 then begin
      send.node 1 (ctx.input * 10);
      send.node 1 ((ctx.input * 10) + 1)
    end;
    if round >= 1 then st.decision <- Decision.Agreed st.folded;
    st

  let idle = Protocol.never_idle
  let decide st = st.decision

  let observe st =
    { Observation.bystander with has_decided = st.decision <> Decision.Undecided }
end

let test_inbox_arrival_order () =
  let module E = Engine.Make (Inbox_order) in
  let n = 8 in
  let inputs = Array.make n 0 in
  inputs.(0) <- 1;
  inputs.(2) <- 2;
  inputs.(5) <- 3;
  let r = E.run { (base_config ~n ()) with inputs = Some inputs } in
  Alcotest.(check (list string)) "no errors" [] (List.map Ftc_sim.Violation.to_string r.violations);
  match r.decisions.(1) with
  | Decision.Agreed v ->
      (* Sender order 0, 2, 5; per sender: v*10 then v*10+1. *)
      Alcotest.(check int) "arrival order 10 11 20 21 30 31" 101120213031 v
  | d -> Alcotest.failf "unexpected decision %s" (Decision.to_string d)

let () =
  Alcotest.run "engine"
    [
      ( "ports",
        [
          Alcotest.test_case "ping-pong roundtrip" `Quick test_ping_pong_roundtrip;
          Alcotest.test_case "fresh ports cover everyone" `Quick test_fresh_ports_cover_everyone;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "drop all" `Quick test_crash_drop_all;
          Alcotest.test_case "keep prefix" `Quick test_crash_keep_prefix;
          Alcotest.test_case "drop none" `Quick test_crash_drop_none;
          Alcotest.test_case "trace events" `Quick test_trace_records_crash_and_sends;
          Alcotest.test_case "timed_out flag" `Quick test_timed_out_flag;
          Alcotest.test_case "non-faulty protected" `Quick test_adversary_cannot_crash_non_faulty;
          Alcotest.test_case "faulty budget enforced" `Quick test_adversary_budget_enforced;
        ] );
      ( "links",
        [
          Alcotest.test_case "total loss balanced" `Quick test_link_total_loss_balanced;
          Alcotest.test_case "partial loss reconciles" `Quick test_link_partial_loss_reconciles;
          Alcotest.test_case "deterministic, reliable unchanged" `Quick
            test_link_determinism_and_reliable_stream_unchanged;
          Alcotest.test_case "unroutable sends counted" `Quick test_unroutable_fresh_sends_counted;
        ] );
      ( "model",
        [
          Alcotest.test_case "KT0 node addressing rejected" `Quick test_kt0_node_addressing_rejected;
          Alcotest.test_case "unknown port rejected" `Quick test_unknown_port_rejected;
          Alcotest.test_case "congest violations" `Quick test_congest_violation_detected;
          Alcotest.test_case "KT1 self identity" `Quick test_kt1_self_identity;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "early stop" `Quick test_early_stop_on_quiescence;
          Alcotest.test_case "port stability" `Quick test_port_stability_across_rounds;
          Alcotest.test_case "LOCAL = CONGEST counts" `Quick test_local_and_congest_count_equally;
          Alcotest.test_case "observations expose roles" `Quick test_observations_report_roles;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "max_faulty" `Quick test_max_faulty;
          Alcotest.test_case "bad inputs" `Quick test_bad_inputs_rejected;
          Alcotest.test_case "inbox arrival order" `Quick test_inbox_arrival_order;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ qcheck_engine_deterministic ]);
    ]
