(* Cross-cutting integration tests: for every protocol in the repository,
   a traced run must be internally consistent — the trace, the metrics,
   the decisions, and the observations all describe the same execution. *)

module Engine = Ftc_sim.Engine
module Decision = Ftc_sim.Decision
module Trace = Ftc_sim.Trace

let params = Ftc_core.Params.default

let protocols : (string * (module Ftc_sim.Protocol.S)) list =
  [
    ("ft-leader-election", Ftc_core.Leader_election.make params);
    ("ft-leader-election-explicit", Ftc_core.Leader_election.make ~explicit:true params);
    ("ft-agreement", Ftc_core.Agreement.make params);
    ("ft-agreement-explicit", Ftc_core.Agreement.make ~explicit:true params);
    ("ft-min-agreement", Ftc_core.Min_agreement.make params);
    ("byzantine-probe", Ftc_core.Byzantine_probe.make params);
    ("floodset", Ftc_baselines.Floodset.make ());
    ("rotating", Ftc_baselines.Rotating.make ());
    ("tree", Ftc_baselines.Tree_agreement.make ());
    ("gossip", Ftc_baselines.Gossip.make ());
    ("kutten-le", Ftc_baselines.Kutten_le.make ());
    ("amp-agreement", Ftc_baselines.Amp_agreement.make ());
  ]

let run_traced (module P : Ftc_sim.Protocol.S) ~seed =
  let n = 96 in
  let rng = Ftc_rng.Rng.create (seed * 7) in
  let inputs = Array.init n (fun _ -> if Ftc_rng.Rng.bool rng then 1 else 0) in
  let module E = Engine.Make (P) in
  E.run
    {
      (Engine.default_config ~n ~alpha:0.7 ~seed) with
      inputs = Some inputs;
      trace = Trace.Log;
      adversary = Ftc_fault.Strategy.random_crashes ~horizon:64 ();
    }

let trace_consistency name proto () =
  let r = run_traced proto ~seed:11 in
  Alcotest.(check (list string)) (name ^ ": no model violations") [] (List.map Ftc_sim.Violation.to_string r.violations);
  match r.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
      let sends = ref 0 and dropped = ref 0 and bits = ref 0 in
      let crashes = ref 0 in
      Trace.iter
        (fun e ->
          match e with
          | Trace.Send { bits = b; delivered; round; src; dst } ->
              incr sends;
              bits := !bits + b;
              if not delivered then incr dropped;
              Alcotest.(check bool) (name ^ ": send round in range") true
                (round >= 0 && round < r.rounds_used);
              Alcotest.(check bool) (name ^ ": endpoints in range") true
                (src >= 0 && src < 96 && dst >= 0 && dst < 96 && src <> dst)
          | Trace.Crash { node; round } ->
              incr crashes;
              Alcotest.(check bool) (name ^ ": crash flagged") true r.crashed.(node);
              Alcotest.(check int) (name ^ ": crash round matches") round r.crash_round.(node)
          | Trace.Link_lost _ | Trace.Queue_dropped _ | Trace.Ecn_marked _ | Trace.Unroutable _
            ->
              Alcotest.fail (name ^ ": link events impossible on reliable links"))
        t;
      Alcotest.(check int) (name ^ ": trace sends = metrics") r.metrics.msgs_sent !sends;
      Alcotest.(check int) (name ^ ": trace drops = metrics") r.metrics.msgs_dropped !dropped;
      Alcotest.(check int) (name ^ ": trace bits = metrics") r.metrics.bits_sent !bits;
      let crashed_count =
        Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.crashed
      in
      Alcotest.(check int) (name ^ ": trace crashes = crashed set") crashed_count !crashes;
      (* Per-round series sums to the total. *)
      Alcotest.(check int)
        (name ^ ": per-round series sums")
        r.metrics.msgs_sent
        (Array.fold_left ( + ) 0 r.metrics.per_round_msgs);
      (* Observations agree with decisions on decidedness. *)
      Array.iteri
        (fun i (o : Ftc_sim.Observation.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: node %d observation decidedness" name i)
            (r.decisions.(i) <> Decision.Undecided)
            o.has_decided)
        r.observations

let () =
  Alcotest.run "integration"
    [
      ( "trace-metrics-consistency",
        List.map
          (fun (name, proto) -> Alcotest.test_case name `Quick (trace_consistency name proto))
          protocols );
    ]
