(* Tests for the chaos subsystem: scheduled-plan validation, the oracle
   layer, trace/metrics consistency under every adversary, counterexample
   shrinking, and replay round-tripping. *)

module Engine = Ftc_sim.Engine
module Decision = Ftc_sim.Decision
module Adversary = Ftc_sim.Adversary
module Trace = Ftc_sim.Trace
module Strategy = Ftc_fault.Strategy
module Chaos = Ftc_chaos
module Case = Ftc_chaos.Case
module Oracle = Ftc_chaos.Oracle

(* -- scheduled plan validation -- *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_scheduled_rejects_structurally_bad_plans () =
  raises_invalid (fun () ->
      Strategy.scheduled [ (3, 2, Adversary.Drop_all); (3, 5, Adversary.Drop_none) ] ());
  raises_invalid (fun () -> Strategy.scheduled [ (-1, 0, Adversary.Drop_all) ] ());
  raises_invalid (fun () -> Strategy.scheduled [ (0, -2, Adversary.Drop_all) ] ());
  raises_invalid (fun () -> Strategy.scheduled [ (0, 0, Adversary.Drop_random 1.5) ] ());
  raises_invalid (fun () -> Strategy.scheduled [ (0, 0, Adversary.Keep_prefix (-1)) ] ())

let test_scheduled_rejects_budget_at_pick_time () =
  (* Structurally fine, but two crashes against a fault budget of one:
     the failure must surface as Invalid_argument when the engine asks
     for the faulty set, not as accumulated engine violations. *)
  let adv = Strategy.scheduled [ (0, 0, Adversary.Drop_all); (1, 0, Adversary.Drop_all) ] () in
  let rng = Ftc_rng.Rng.create 1 in
  raises_invalid (fun () -> adv.Adversary.pick_faulty rng ~n:10 ~f:1);
  (* Node id beyond n likewise. *)
  let adv2 = Strategy.scheduled [ (12, 0, Adversary.Drop_all) ] () in
  raises_invalid (fun () -> adv2.Adversary.pick_faulty rng ~n:10 ~f:5)

let test_validate_plan () =
  let plan = [ (3, 2, Adversary.Drop_all); (5, 4, Adversary.Keep_prefix 1) ] in
  Alcotest.(check bool) "valid" true (Strategy.validate_plan ~n:10 ~f:2 ~max_round:10 plan = Ok ());
  Alcotest.(check bool) "budget overrun caught" true
    (Result.is_error (Strategy.validate_plan ~n:10 ~f:1 ~max_round:10 plan));
  Alcotest.(check bool) "node out of range caught" true
    (Result.is_error (Strategy.validate_plan ~n:5 ~f:4 ~max_round:10 plan));
  Alcotest.(check bool) "round out of range caught" true
    (Result.is_error (Strategy.validate_plan ~n:10 ~f:2 ~max_round:3 plan))

(* -- trace/metrics consistency under every adversary -- *)

let test_trace_metrics_every_adversary () =
  List.iter
    (fun (name, adv) ->
      let (module P) = Ftc_core.Leader_election.make Ftc_core.Params.default in
      let module E = Engine.Make (P) in
      let r =
        E.run
          {
            (Engine.default_config ~n:96 ~alpha:0.6 ~seed:17) with
            adversary = adv ();
            record_trace = true;
          }
      in
      Alcotest.(check (list string))
        (name ^ ": no model violations")
        []
        (List.map Ftc_sim.Violation.to_string r.violations);
      match r.trace with
      | None -> Alcotest.fail "trace missing"
      | Some t ->
          let sends = ref 0 and dropped = ref 0 and bits = ref 0 and delivered_bits = ref 0 in
          List.iter
            (function
              | Trace.Send { bits = b; delivered; _ } ->
                  incr sends;
                  bits := !bits + b;
                  if delivered then delivered_bits := !delivered_bits + b else incr dropped
              | Trace.Crash _ | Trace.Link_lost _ | Trace.Queue_dropped _ | Trace.Ecn_marked _
              | Trace.Unroutable _ -> ())
            (Trace.events t);
          Alcotest.(check int) (name ^ ": sends = msgs_sent") r.metrics.msgs_sent !sends;
          Alcotest.(check int) (name ^ ": drops = msgs_dropped") r.metrics.msgs_dropped !dropped;
          Alcotest.(check int) (name ^ ": bits = bits_sent") r.metrics.bits_sent !bits;
          Alcotest.(check bool)
            (name ^ ": delivered bits bounded by sent bits")
            true
            (!delivered_bits <= r.metrics.bits_sent))
    (Strategy.all ())

(* -- oracles -- *)

let clean_case =
  {
    Case.protocol = "ft-leader-election";
    n = 64;
    alpha = 0.8;
    seed = 5;
    inputs = Array.make 64 0;
    plan = [];
    adversary = None;
    loss = Ftc_fault.Omission.No_loss;
    queue = None;
    transport = false;
  }

let test_oracles_clean_on_good_run () =
  match Case.run clean_case with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (r, findings) ->
      Alcotest.(check int) "no findings"
        0
        (List.length findings);
      Alcotest.(check bool) "did not time out" false r.Engine.timed_out

let test_case_validation () =
  let bad = { clean_case with Case.protocol = "no-such-protocol" } in
  Alcotest.(check bool) "unknown protocol" true (Result.is_error (Case.run bad));
  let bad = { clean_case with Case.inputs = [| 1 |] } in
  Alcotest.(check bool) "inputs length" true (Result.is_error (Case.run bad));
  let bad = { clean_case with Case.plan = [ (0, 0, Adversary.Drop_all) ] } in
  (* alpha 0.8, n 64 -> budget 12; a single crash is fine, but node 64 is not. *)
  Alcotest.(check bool) "single crash ok" true (Result.is_ok (Case.run bad));
  let bad = { clean_case with Case.plan = [ (64, 0, Adversary.Drop_all) ] } in
  Alcotest.(check bool) "node out of range" true (Result.is_error (Case.run bad))

(* -- a seeded known-bad case: crash the fault-free leader of the
      crash-intolerant Kutten et al. election -- *)

let kutten_known_bad () =
  let base =
    {
      Case.protocol = "kutten-leader-election";
      n = 48;
      alpha = 0.7;
      seed = 42;
      inputs = Array.make 48 0;
      plan = [];
      adversary = None;
      loss = Ftc_fault.Omission.No_loss;
      queue = None;
      transport = false;
    }
  in
  let leader =
    match Case.run base with
    | Error e -> Alcotest.fail (Case.error_to_string e)
    | Ok (r, findings) ->
        Alcotest.(check int) "fault-free run is clean" 0 (List.length findings);
        let idx = ref None in
        Array.iteri (fun i d -> if d = Decision.Elected then idx := Some i) r.Engine.decisions;
        (match !idx with Some i -> i | None -> Alcotest.fail "no fault-free leader")
  in
  (* Crash the leader after it has registered with its referees (round 1)
     and pad the plan with two irrelevant crashes the shrinker must
     discard. *)
  let junk = List.filter (fun v -> v <> leader) [ 0; 1; 2 ] in
  let plan =
    (leader, 1, Adversary.Drop_all)
    :: List.map (fun v -> (v, 3, Adversary.Drop_none)) (List.filteri (fun i _ -> i < 2) junk)
  in
  (base, leader, { base with Case.plan })

let test_known_bad_case_fails_election_oracle () =
  let _, _, bad = kutten_known_bad () in
  match Case.run bad with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (_, findings) ->
      Alcotest.(check bool) "election oracle fires" true
        (List.exists (fun f -> f.Oracle.oracle = "election") findings)

let test_junk_entries_alone_are_harmless () =
  let base, leader, bad = kutten_known_bad () in
  let junk_only = List.filter (fun (v, _, _) -> v <> leader) bad.Case.plan in
  match Case.run { base with Case.plan = junk_only } with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (_, findings) -> Alcotest.(check int) "no findings" 0 (List.length findings)

let test_shrink_drops_junk_and_replay_roundtrips () =
  let _, _, bad = kutten_known_bad () in
  let findings = Case.findings bad in
  Alcotest.(check bool) "known-bad fails" true (findings <> []);
  let failure = Chaos.Fuzz.shrink_failure bad findings in
  let shrunk = failure.Chaos.Fuzz.shrunk in
  (* The two padding crashes are irrelevant, so the minimal plan is a
     single entry (shrinking n may relocate the failure, but never needs
     more crashes than the original). *)
  Alcotest.(check int) "shrunk to a single crash" 1 (List.length shrunk.Case.plan);
  Alcotest.(check bool) "shrunk case still fails the same oracle" true
    (Oracle.same_oracle findings failure.Chaos.Fuzz.shrunk_findings);
  Alcotest.(check bool) "shrunk n no larger" true (shrunk.Case.n <= bad.Case.n);
  (* Replay round-trip: serialize, parse, compare, re-run. *)
  let expect = List.sort_uniq compare (List.map (fun f -> f.Oracle.oracle) findings) in
  let text = Chaos.Replay.to_string ~expect shrunk in
  (match Chaos.Replay.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (parsed, expect') ->
      Alcotest.(check bool) "case round-trips" true (Case.equal shrunk parsed);
      Alcotest.(check (list string)) "expectations round-trip" expect expect';
      Alcotest.(check bool) "replayed case reproduces the violation" true
        (Oracle.same_oracle findings (Case.findings parsed)));
  (* And through an actual file. *)
  let path = Filename.temp_file "chaos" ".ftc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chaos.Replay.save ~expect path shrunk;
      match Chaos.Replay.load path with
      | Error e -> Alcotest.fail e
      | Ok (parsed, _) ->
          Alcotest.(check bool) "file round-trips" true (Case.equal shrunk parsed))

(* -- named adversaries in cases (the sweep supervisor's shape) -- *)

let test_adversary_case_runs_and_roundtrips () =
  let case = { clean_case with Case.adversary = Some "random" } in
  (match Case.run case with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (r, findings) ->
      Alcotest.(check int) "ft-election under random crashes is clean" 0
        (List.length findings);
      Alcotest.(check bool) "crashes actually happened" true
        (Array.exists Fun.id r.Engine.crashed));
  (* Determinism: the named adversary draws from the case seed. *)
  let metrics_of c =
    match Case.run c with
    | Ok (r, _) -> r.Engine.metrics
    | Error e -> Alcotest.fail (Case.error_to_string e)
  in
  Alcotest.(check bool) "same case, same execution" true
    (metrics_of case = metrics_of case);
  (* Replay v3 round-trip carries the adversary line. *)
  let text = Chaos.Replay.to_string case in
  Alcotest.(check bool) "text has adversary line" true
    (Astring.String.is_infix ~affix:"adversary random" text);
  match Chaos.Replay.of_string text with
  | Error e -> Alcotest.fail e
  | Ok (parsed, _) ->
      Alcotest.(check bool) "round-trips" true (Case.equal case parsed);
      Alcotest.(check bool) "replayed run identical" true
        (metrics_of case = metrics_of parsed)

let test_adversary_validation () =
  let bad = { clean_case with Case.adversary = Some "no-such-strategy" } in
  Alcotest.(check bool) "unknown adversary rejected" true (Result.is_error (Case.validate bad));
  let both =
    {
      clean_case with
      Case.adversary = Some "random";
      plan = [ (0, 0, Adversary.Drop_all) ];
    }
  in
  Alcotest.(check bool) "adversary + plan rejected" true (Result.is_error (Case.validate both))

(* -- the always-violating probe protocol -- *)

let test_faulty_probe_violates () =
  (* In the catalog (so sweep/replay can name it) but not fuzzable — the
     fuzzer's case stream and its clean-run guarantee must not change. *)
  Alcotest.(check bool) "findable" true (Chaos.Catalog.find "faulty-probe" <> None);
  Alcotest.(check bool) "listed in names" true (List.mem "faulty-probe" (Chaos.Catalog.names ()));
  Alcotest.(check bool) "not in the fuzzed set" true
    (List.for_all (fun (e : Chaos.Catalog.entry) -> e.name <> "faulty-probe") Chaos.Catalog.all);
  let case =
    {
      clean_case with
      Case.protocol = "faulty-probe";
      n = 8;
      inputs = Array.make 8 0;
    }
  in
  match Case.run case with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (_, findings) ->
      Alcotest.(check bool) "model oracle fires on every run" true
        (List.exists (fun f -> f.Oracle.oracle = "model") findings)

(* -- omission faults in cases, oracles, replay -- *)

let test_lossy_raw_is_degradation_not_bug () =
  (* Starve a raw protocol with heavy loss: the run surely fails to elect,
     but the oracles must treat that as measured degradation — only the
     accounting invariants (model/congest/trace-metrics) apply, and those
     must still hold. *)
  let case = { clean_case with Case.loss = Ftc_fault.Omission.Uniform 0.9 } in
  match Case.run case with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (r, findings) ->
      Alcotest.(check bool) "losses actually happened" true (r.Engine.metrics.msgs_lost_link > 0);
      Alcotest.(check (list string)) "no findings on a lossy raw run" []
        (List.map (fun f -> f.Oracle.oracle) findings)

let test_wrapped_case_survives_light_loss () =
  (* The same protocol under the transport is held to every oracle and
     must pass: 2% uniform loss is far inside the retransmission budget. *)
  let case =
    {
      clean_case with
      Case.loss = Ftc_fault.Omission.Uniform 0.02;
      transport = true;
      n = 48;
      inputs = Array.make 48 0;
    }
  in
  match Case.run case with
  | Error e -> Alcotest.fail (Case.error_to_string e)
  | Ok (r, findings) ->
      Alcotest.(check bool) "losses actually happened" true (r.Engine.metrics.msgs_lost_link > 0);
      Alcotest.(check (list string)) "wrapped run passes every oracle" []
        (List.map (fun f -> Format.asprintf "%a" Oracle.pp f) findings)

let test_replay_v2_roundtrip_with_loss () =
  let case =
    {
      clean_case with
      Case.loss = Ftc_fault.Omission.Burst { rate = 0.125; mean_len = 3. };
      transport = true;
    }
  in
  (match Chaos.Replay.of_string (Chaos.Replay.to_string case) with
  | Error e -> Alcotest.fail e
  | Ok (parsed, _) ->
      Alcotest.(check bool) "loss and transport round-trip" true (Case.equal case parsed));
  (* A version-1 file (no loss/transport lines) still loads, meaning
     reliable links and no wrapper. *)
  let v1 = "ftc-chaos-replay 1\nprotocol ft-agreement\nn 8\nalpha 0.5\nseed 3\n" in
  match Chaos.Replay.of_string v1 with
  | Error e -> Alcotest.fail e
  | Ok (parsed, _) ->
      Alcotest.(check bool) "v1 defaults to no loss" true
        (parsed.Case.loss = Ftc_fault.Omission.No_loss && not parsed.Case.transport)

let test_shrinker_discards_irrelevant_loss () =
  (* Wrap the known-bad kutten case in the transport with 1% loss riding
     along. The failure is caused by the crash, not the loss, so the
     shrinker must strip both the loss model and the wrapper. (A *raw*
     case with loss attached is out of scope here: it is judged by the
     accounting oracles only, so the election oracle cannot fire.) *)
  let _, _, bad = kutten_known_bad () in
  let bad = { bad with Case.loss = Ftc_fault.Omission.Uniform 0.01; transport = true } in
  let findings = Case.findings bad in
  Alcotest.(check bool) "still fails with loss + transport attached" true (findings <> []);
  let failure = Chaos.Fuzz.shrink_failure bad findings in
  Alcotest.(check bool) "loss shrunk away" true
    (failure.Chaos.Fuzz.shrunk.Case.loss = Ftc_fault.Omission.No_loss);
  Alcotest.(check bool) "transport shrunk away" true
    (not failure.Chaos.Fuzz.shrunk.Case.transport)

let test_omission_fuzz_deterministic_and_clean () =
  let config =
    { Chaos.Fuzz.default_config with Chaos.Fuzz.budget = 20; seed = 2; omission = true }
  in
  let a = Chaos.Fuzz.run config in
  let b = Chaos.Fuzz.run config in
  Alcotest.(check int) "cases run" a.Chaos.Fuzz.cases_run b.Chaos.Fuzz.cases_run;
  Alcotest.(check bool) "20 omission cases come back clean" true
    (a.Chaos.Fuzz.failure = None && b.Chaos.Fuzz.failure = None)

(* Engine hot-path regression: handwritten v1 and v2 replay files — the
   exact artifacts a past CI failure would have left behind — must still
   load, validate against the catalog, and replay with every accounting
   oracle (model / congest / trace-metrics) balanced after the engine's
   allocation refactor. [Case.run] records a trace, so a clean finding
   list means the trace reconciles exactly with the metrics counters. *)
let test_replay_fixture_files_still_validate_and_balance () =
  let fixtures =
    [
      ( "v1 crash-only",
        "ftc-chaos-replay 1\n\
         protocol ft-leader-election\n\
         n 48\n\
         alpha 0.7\n\
         seed 11\n\
         crash 3 1 drop-all\n\
         crash 7 2 keep-prefix 2\n",
        false );
      ( "v2 lossy wrapped",
        "ftc-chaos-replay 2\n\
         # saved by an older fuzzer run\n\
         protocol ft-leader-election\n\
         n 48\n\
         alpha 0.7\n\
         seed 4\n\
         crash 5 1 drop-random 0.5\n\
         loss uniform 0.02\n\
         transport on\n",
        true )
    ]
  in
  List.iter
    (fun (name, text, lossy) ->
      match Chaos.Replay.of_string text with
      | Error e -> Alcotest.failf "%s: parse failed: %s" name e
      | Ok (case, expect) -> (
          Alcotest.(check (list string)) (name ^ ": no expect lines") [] expect;
          Alcotest.(check bool) (name ^ ": validates") true
            (Result.is_ok (Case.validate case));
          match Case.run case with
          | Error e -> Alcotest.failf "%s: %s" name (Case.error_to_string e)
          | Ok (r, findings) ->
              if lossy then
                Alcotest.(check bool) (name ^ ": losses happened") true
                  (r.Engine.metrics.msgs_lost_link > 0);
              Alcotest.(check (list string)) (name ^ ": accounting balances") []
                (List.map (fun f -> Format.asprintf "%a" Oracle.pp f) findings)))
    fixtures

(* The same guarantee for artifacts that live on disk: the checked-in
   version-3 and version-4 fixture files must keep replaying to the
   exact run they recorded. The pinned constants are the metrics those
   files produced when they were written — any drift in the parser, the
   rng streams, or the engine's event order shows up here as a changed
   number, i.e. the counterexample silently became a different case. *)
let test_replay_fixtures_on_disk_bit_identical () =
  let read_file path =
    (* dune runtest runs us next to fixtures/; a manual `dune exec`
       from the project root sees them under test/ instead. *)
    let path = if Sys.file_exists path then path else Filename.concat "test" path in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fixtures =
    [
      (* (path, msgs_sent, bits_sent, dropped, lost_link, dropped_queue, ecn_marked, rounds) *)
      ("fixtures/replay-v3.ftc", 6_574, 109_527, 127, 130, 0, 0, 3_458);
      ("fixtures/replay-v4.ftc", 50_554, 1_614_663, 0, 0, 0, 41_902, 1_969);
    ]
  in
  List.iter
    (fun (path, sent, bits, dropped, lost, qdrop, marked, rounds) ->
      match Chaos.Replay.of_string (read_file path) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" path e
      | Ok (case, _expect) -> (
          Alcotest.(check bool) (path ^ ": validates") true
            (Result.is_ok (Case.validate case));
          match Case.run case with
          | Error e -> Alcotest.failf "%s: %s" path (Case.error_to_string e)
          | Ok (r, findings) ->
              Alcotest.(check (list string)) (path ^ ": oracles clean") []
                (List.map (fun f -> Format.asprintf "%a" Oracle.pp f) findings);
              Alcotest.(check int) (path ^ ": msgs_sent") sent r.Engine.metrics.msgs_sent;
              Alcotest.(check int) (path ^ ": bits_sent") bits r.Engine.metrics.bits_sent;
              Alcotest.(check int) (path ^ ": msgs_dropped") dropped r.Engine.metrics.msgs_dropped;
              Alcotest.(check int) (path ^ ": msgs_lost_link") lost r.Engine.metrics.msgs_lost_link;
              Alcotest.(check int)
                (path ^ ": msgs_dropped_queue")
                qdrop r.Engine.metrics.msgs_dropped_queue;
              Alcotest.(check int)
                (path ^ ": msgs_ecn_marked")
                marked r.Engine.metrics.msgs_ecn_marked;
              Alcotest.(check int) (path ^ ": rounds_used") rounds r.Engine.rounds_used))
    fixtures

let test_replay_parser_rejects_garbage () =
  Alcotest.(check bool) "garbage" true (Result.is_error (Chaos.Replay.of_string "hello\nworld"));
  Alcotest.(check bool) "empty" true (Result.is_error (Chaos.Replay.of_string ""));
  Alcotest.(check bool) "missing header" true
    (Result.is_error (Chaos.Replay.of_string "ftc-chaos-replay 1\nprotocol ft-agreement\n"));
  Alcotest.(check bool) "bad version" true
    (Result.is_error (Chaos.Replay.of_string "ftc-chaos-replay 99\n"))

(* A case's telemetry [ok] is the oracles' verdict, not the runner's
   model health: crash-probe under first-send breaks agreement without
   any model violation, and its one Trial event must say so. *)
let test_case_telemetry_ok_is_oracle_verdict () =
  let case seed =
    Case.of_seed ~protocol:"crash-probe" ~n:8 ~alpha:0.7 ~adversary:(Some "first-send") seed
  in
  let failing =
    List.find_opt
      (fun seed -> Case.findings (case seed) <> [])
      (List.init 20 (fun i -> i + 1))
  in
  match failing with
  | None -> Alcotest.fail "no crash-probe first-send case with findings in seeds 1..20"
  | Some seed -> (
      let recorder = Ftc_telemetry.Recorder.create () in
      match Case.run ~recorder (case seed) with
      | Error e -> Alcotest.fail (Case.error_to_string e)
      | Ok (r, findings) ->
          Alcotest.(check bool) "oracle findings" true (findings <> []);
          Alcotest.(check (list string)) "no model violation" []
            (List.map Ftc_sim.Violation.to_string r.Engine.violations);
          let trials =
            List.filter_map
              (function Ftc_telemetry.Recorder.Trial { ok; _ } -> Some ok | _ -> None)
              (Ftc_telemetry.Recorder.events recorder)
          in
          Alcotest.(check (list bool)) "exactly one Trial event, not ok" [ false ] trials)

(* -- the fuzzer -- *)

let test_fuzz_deterministic_and_clean () =
  let config = { Chaos.Fuzz.default_config with Chaos.Fuzz.budget = 22; seed = 1 } in
  let a = Chaos.Fuzz.run config in
  let b = Chaos.Fuzz.run config in
  Alcotest.(check int) "cases run" a.Chaos.Fuzz.cases_run b.Chaos.Fuzz.cases_run;
  Alcotest.(check bool) "22 cases over every protocol come back clean" true
    (a.Chaos.Fuzz.failure = None && b.Chaos.Fuzz.failure = None)

let test_gen_case_deterministic_and_valid () =
  List.iter
    (fun (entry : Chaos.Catalog.entry) ->
      let g seed = Chaos.Fuzz.gen_case (Ftc_rng.Rng.create seed) entry ~n_min:16 ~n_max:48 in
      Alcotest.(check bool) (entry.name ^ ": deterministic") true (Case.equal (g 9) (g 9));
      let case = g 11 in
      Alcotest.(check bool) (entry.name ^ ": valid") true (Result.is_ok (Case.validate case));
      if not entry.crash_tolerant then
        Alcotest.(check int) (entry.name ^ ": fault-free plan") 0 (List.length case.Case.plan))
    Chaos.Catalog.all

let () =
  Alcotest.run "chaos"
    [
      ( "plan-validation",
        [
          Alcotest.test_case "structural rejects" `Quick test_scheduled_rejects_structurally_bad_plans;
          Alcotest.test_case "budget at pick time" `Quick test_scheduled_rejects_budget_at_pick_time;
          Alcotest.test_case "validate_plan" `Quick test_validate_plan;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "clean run" `Quick test_oracles_clean_on_good_run;
          Alcotest.test_case "case validation" `Quick test_case_validation;
          Alcotest.test_case "trace/metrics every adversary" `Quick test_trace_metrics_every_adversary;
        ] );
      ( "shrink-replay",
        [
          Alcotest.test_case "known-bad fails" `Quick test_known_bad_case_fails_election_oracle;
          Alcotest.test_case "junk alone harmless" `Quick test_junk_entries_alone_are_harmless;
          Alcotest.test_case "shrink + replay round-trip" `Quick
            test_shrink_drops_junk_and_replay_roundtrips;
          Alcotest.test_case "parser rejects garbage" `Quick test_replay_parser_rejects_garbage;
          Alcotest.test_case "fixture files validate + balance" `Quick
            test_replay_fixture_files_still_validate_and_balance;
          Alcotest.test_case "on-disk fixtures bit-identical" `Quick
            test_replay_fixtures_on_disk_bit_identical;
        ] );
      ( "sweep-cases",
        [
          Alcotest.test_case "named adversary runs + replay v3" `Quick
            test_adversary_case_runs_and_roundtrips;
          Alcotest.test_case "adversary validation" `Quick test_adversary_validation;
          Alcotest.test_case "faulty-probe violates, not fuzzed" `Quick
            test_faulty_probe_violates;
          Alcotest.test_case "telemetry ok is the oracle verdict" `Quick
            test_case_telemetry_ok_is_oracle_verdict;
        ] );
      ( "omission",
        [
          Alcotest.test_case "lossy raw = degradation" `Quick test_lossy_raw_is_degradation_not_bug;
          Alcotest.test_case "wrapped survives light loss" `Quick
            test_wrapped_case_survives_light_loss;
          Alcotest.test_case "replay v2 round-trip" `Quick test_replay_v2_roundtrip_with_loss;
          Alcotest.test_case "shrinker discards irrelevant loss" `Quick
            test_shrinker_discards_irrelevant_loss;
          Alcotest.test_case "omission fuzz deterministic + clean" `Slow
            test_omission_fuzz_deterministic_and_clean;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "deterministic + clean" `Slow test_fuzz_deterministic_and_clean;
          Alcotest.test_case "gen_case" `Quick test_gen_case_deterministic_and_valid;
        ] );
    ]
