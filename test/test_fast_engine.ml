(* Differential suite for the one engine.

   The engine's whole contract is bit-identity with the round model as
   the reference interpreter (test/reference_engine.ml) executes it:
   for every protocol — through the generic adapter, and through its
   hand-written codec port where one exists — [Engine] run on a config
   must produce the same decisions, observations, crash record,
   metrics counters, violation list, and (at small n, where we record
   it) the same trace event stream. These tests pin that equivalence
   across the fault/loss/queue axes, plus the replay v1–v4 round-trip,
   the n = 8 golden fixture, and the empty-aggregate regression. *)

module Engine = Ftc_sim.Engine
module Metrics = Ftc_sim.Metrics
module Trace = Ftc_sim.Trace
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Violation = Ftc_sim.Violation
module Congest = Ftc_sim.Congest
module Queue_model = Ftc_sim.Queue_model
module Strategy = Ftc_fault.Strategy
module Omission = Ftc_fault.Omission
module Runner = Ftc_expt.Runner
module Chaos = Ftc_chaos

let params = Ftc_core.Params.default

(* ------------------------------------------------------------------ *)
(* The protocols under differential test.                             *)

type subject = {
  tag : string;
  protocol : (module Ftc_sim.Protocol.S);
  port : (module Ftc_sim.Fast_protocol.S) option;  (** Hand-written codec port. *)
  mk_inputs : n:int -> salt:int -> int array;
}

let bit_inputs ~n ~salt = Array.init n (fun i -> (salt lxor (i * 2654435761)) land 1)
let value_inputs ~bound ~n ~salt = Array.init n (fun i -> ((salt + i) * 40503) mod (bound + 1))

(* Every catalog protocol (the deliberately broken probes included: the
   violation lists must agree too), plus the transport wrapper, whose
   congestion reaction reads the ECN bit the adapter carries. *)
let subjects =
  let of_entry (e : Chaos.Catalog.entry) =
    {
      tag = e.Chaos.Catalog.name;
      protocol = e.Chaos.Catalog.make ();
      port = Option.map (fun mk -> mk ()) e.Chaos.Catalog.fast;
      mk_inputs =
        (match e.Chaos.Catalog.inputs with
        | Chaos.Catalog.No_inputs -> fun ~n ~salt:_ -> Array.make n 0
        | Chaos.Catalog.Bits -> bit_inputs
        | Chaos.Catalog.Values bound -> value_inputs ~bound);
    }
  in
  let wrapped s =
    {
      s with
      tag = s.tag ^ "+transport";
      protocol = fst (Ftc_transport.Transport.wrap s.protocol);
      port = None;
    }
  in
  let catalog =
    List.map of_entry
      (Chaos.Catalog.all @ List.filter_map Chaos.Catalog.find [ "faulty-probe"; "crash-probe" ])
  in
  catalog
  @ List.map wrapped
      (List.filter (fun s -> List.mem s.tag [ "ft-leader-election"; "ft-agreement" ]) catalog)

let subject tag = List.find (fun s -> s.tag = tag) subjects

(* ------------------------------------------------------------------ *)
(* The fault/loss/queue axes swept by the differential tests.          *)

let adversaries = Strategy.all ()

let losses =
  [|
    ("reliable", Omission.No_loss);
    ("uniform", Omission.Uniform 0.15);
    ("burst", Omission.Burst { rate = 0.1; mean_len = 2.5 });
    ("targeted", Omission.Targeted 0.2);
  |]

let queues =
  [|
    ("unbounded", None);
    ("drop-tail", Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Drop_tail ()));
    ("red", Some (Queue_model.make ~capacity:4 ~discipline:Queue_model.Red ()));
    ("ecn", Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Ecn ()));
  |]

let alphas = [| 0.5; 0.7; 0.9; 1.0 |]

(* ------------------------------------------------------------------ *)
(* Full-result comparison.                                            *)

let show_arr f a = "[|" ^ String.concat "; " (Array.to_list (Array.map f a)) ^ "|]"

let show_observation (o : Observation.t) =
  Printf.sprintf "{role=%s; rank=%s; has_decided=%b}"
    (match o.Observation.role with
    | Observation.Candidate -> "candidate"
    | Observation.Referee -> "referee"
    | Observation.Bystander -> "bystander"
    | Observation.Coordinator -> "coordinator")
    (match o.Observation.rank with None -> "-" | Some r -> string_of_int r)
    o.Observation.has_decided

let check_same ~ctx (a : Engine.result) (b : Engine.result) =
  let fail field show va vb =
    Alcotest.failf "%s: %s differs\n  reference: %s\n  engine:    %s" ctx field (show va)
      (show vb)
  in
  let eq field show va vb = if va <> vb then fail field show va vb in
  eq "decisions" (show_arr Decision.to_string) a.Engine.decisions b.Engine.decisions;
  eq "observations" (show_arr show_observation) a.Engine.observations b.Engine.observations;
  eq "faulty" (show_arr string_of_bool) a.Engine.faulty b.Engine.faulty;
  eq "crashed" (show_arr string_of_bool) a.Engine.crashed b.Engine.crashed;
  eq "crash_round" (show_arr string_of_int) a.Engine.crash_round b.Engine.crash_round;
  eq "rounds_used" string_of_int a.Engine.rounds_used b.Engine.rounds_used;
  eq "timed_out" string_of_bool a.Engine.timed_out b.Engine.timed_out;
  eq "watchdog_expired" string_of_bool a.Engine.watchdog_expired b.Engine.watchdog_expired;
  let ma = a.Engine.metrics and mb = b.Engine.metrics in
  let meq field va vb = eq ("metrics." ^ field) string_of_int va vb in
  meq "msgs_sent" ma.Metrics.msgs_sent mb.Metrics.msgs_sent;
  meq "msgs_dropped" ma.Metrics.msgs_dropped mb.Metrics.msgs_dropped;
  meq "msgs_lost_link" ma.Metrics.msgs_lost_link mb.Metrics.msgs_lost_link;
  meq "msgs_dropped_queue" ma.Metrics.msgs_dropped_queue mb.Metrics.msgs_dropped_queue;
  meq "msgs_ecn_marked" ma.Metrics.msgs_ecn_marked mb.Metrics.msgs_ecn_marked;
  meq "msgs_unroutable" ma.Metrics.msgs_unroutable mb.Metrics.msgs_unroutable;
  meq "bits_sent" ma.Metrics.bits_sent mb.Metrics.bits_sent;
  meq "rounds_used" ma.Metrics.rounds_used mb.Metrics.rounds_used;
  meq "congest_violations" ma.Metrics.congest_violations mb.Metrics.congest_violations;
  meq "max_round_seen" ma.Metrics.max_round_seen mb.Metrics.max_round_seen;
  let aeq field va vb = eq ("metrics." ^ field) (show_arr string_of_int) va vb in
  aeq "per_round_msgs" ma.Metrics.per_round_msgs mb.Metrics.per_round_msgs;
  aeq "per_round_bits" ma.Metrics.per_round_bits mb.Metrics.per_round_bits;
  aeq "per_round_drops" ma.Metrics.per_round_drops mb.Metrics.per_round_drops;
  aeq "per_round_queue_drops" ma.Metrics.per_round_queue_drops mb.Metrics.per_round_queue_drops;
  aeq "per_round_ecn_marks" ma.Metrics.per_round_ecn_marks mb.Metrics.per_round_ecn_marks;
  aeq "per_round_queue_peak" ma.Metrics.per_round_queue_peak mb.Metrics.per_round_queue_peak;
  Alcotest.(check (list string))
    (ctx ^ ": violations")
    (List.map Violation.to_string a.Engine.violations)
    (List.map Violation.to_string b.Engine.violations);
  (match (a.Engine.trace, b.Engine.trace) with
  | None, None -> ()
  | Some _, None | None, Some _ -> Alcotest.failf "%s: trace presence differs" ctx
  | Some ta, Some tb ->
      let ea = Trace.events ta and eb = Trace.events tb in
      let la = List.length ea and lb = List.length eb in
      List.iteri
        (fun i (va, vb) ->
          if va <> vb then
            Alcotest.failf "%s: trace event %d differs\n  reference: %a\n  engine:    %a" ctx i
              Trace.pp_event va Trace.pp_event vb)
        (List.combine
           (if la <= lb then ea else List.filteri (fun i _ -> i < lb) ea)
           (if lb <= la then eb else List.filteri (fun i _ -> i < la) eb));
      if la <> lb then
        Alcotest.failf "%s: trace length differs (reference %d, engine %d)" ctx la lb);
  eq "round_ns length" string_of_int
    (Array.length a.Engine.round_ns)
    (Array.length b.Engine.round_ns)

(* One differential run: same config (fresh adversary/link instances per
   run — both are stateful), the reference interpreter against the
   engine through the adapter and, where one exists, the codec port. *)
let differential ?(trace = true) subject ~n ~alpha ~seed ~mk_adv ~loss ~queue ~ctx =
  let inputs = subject.mk_inputs ~n ~salt:seed in
  let mk_cfg () =
    {
      Engine.n;
      alpha;
      seed;
      inputs = Some inputs;
      adversary = mk_adv ();
      link = Omission.to_link loss;
      queue;
      congest_limit = Some (Congest.default_limit ~n);
      record_trace = trace;
      max_rounds_override = None;
      watchdog = None;
      round_clock = None;
    }
  in
  let (module P : Ftc_sim.Protocol.S) = subject.protocol in
  let module R = Reference_engine.Make (P) in
  let module E = Engine.Make (P) in
  let expected = R.run (mk_cfg ()) in
  check_same ~ctx expected (E.run (mk_cfg ()));
  Option.iter
    (fun (module C : Ftc_sim.Fast_protocol.S) ->
      let module EC = Engine.Make_codec (C) in
      check_same ~ctx:(ctx ^ "/port") expected (EC.run (mk_cfg ())))
    subject.port

(* ------------------------------------------------------------------ *)
(* Deterministic sweeps.                                              *)

(* Every subject under every named adversary, reliable links: the crash
   machinery (decide order, drop rules, faulty budget) differentially
   pinned with full trace comparison. *)
let test_sweep_adversaries () =
  List.iter
    (fun subject ->
      List.iter
        (fun (aname, mk_adv) ->
          List.iter
            (fun n ->
              let ctx = Printf.sprintf "%s/%s/n=%d" subject.tag aname n in
              differential subject ~n ~alpha:0.7 ~seed:11 ~mk_adv ~loss:Omission.No_loss
                ~queue:None ~ctx)
            [ 3; 4; 7; 12 ])
        adversaries)
    subjects

(* Every subject under every loss model x queue discipline, with random
   crashes on top: the lossy forwarding path (link coins, queue coins,
   ECN marks, drop accounting) differentially pinned. *)
let test_sweep_loss_queue () =
  List.iter
    (fun subject ->
      Array.iter
        (fun (lname, loss) ->
          Array.iter
            (fun (qname, queue) ->
              List.iter
                (fun n ->
                  let ctx = Printf.sprintf "%s/%s/%s/n=%d" subject.tag lname qname n in
                  differential subject ~n ~alpha:0.7 ~seed:42
                    ~mk_adv:(fun () -> Strategy.random_crashes ())
                    ~loss ~queue ~ctx)
                [ 6; 17 ])
            queues)
        losses)
    subjects

(* ------------------------------------------------------------------ *)
(* Randomised cross-check over the full configuration space.          *)

let qcheck_differential =
  QCheck.Test.make ~name:"fast engine = classic engine on random configurations" ~count:120
    QCheck.(pair (int_range 3 64) (int_range 0 100_000_000))
    (fun (n, z) ->
      let subject = List.nth subjects (z mod List.length subjects) in
      let aname, mk_adv = List.nth adversaries (z / 7 mod List.length adversaries) in
      let lname, loss = losses.(z / 61 mod Array.length losses) in
      let qname, queue = queues.(z / 253 mod Array.length queues) in
      let alpha = alphas.(z / 1021 mod Array.length alphas) in
      let ctx =
        Printf.sprintf "%s/%s/%s/%s/n=%d/alpha=%g/seed=%d" subject.tag aname lname qname n
          alpha z
      in
      (* Traces are O(messages); keep full event comparison to small n. *)
      differential ~trace:(n <= 12) subject ~n ~alpha ~seed:z ~mk_adv ~loss ~queue ~ctx;
      true)

(* ------------------------------------------------------------------ *)
(* Trace-events reconcile with the metrics counters.                  *)

let test_fast_trace_reconciles_with_metrics () =
  List.iter
    (fun (subject, queue) ->
      let inputs = subject.mk_inputs ~n:9 ~salt:5 in
      let (module P : Ftc_sim.Protocol.S) = subject.protocol in
      let module E = Engine.Make (P) in
      let r =
        E.run
          {
            Engine.n = 9;
            alpha = 0.7;
            seed = 5;
            inputs = Some inputs;
            adversary = Strategy.random_crashes ();
            link = Omission.to_link (Omission.Uniform 0.2);
            queue;
            congest_limit = Some (Congest.default_limit ~n:9);
            record_trace = true;
            max_rounds_override = None;
            watchdog = None;
            round_clock = None;
          }
      in
      let m = r.Engine.metrics in
      let sends = ref 0
      and undelivered = ref 0
      and link_lost = ref 0
      and queue_dropped = ref 0
      and ecn = ref 0
      and crashes = ref 0
      and unroutable = ref 0 in
      List.iter
        (function
          | Trace.Send { delivered; _ } ->
              incr sends;
              if not delivered then incr undelivered
          | Trace.Link_lost _ -> incr link_lost
          | Trace.Queue_dropped _ -> incr queue_dropped
          | Trace.Ecn_marked _ -> incr ecn
          | Trace.Crash _ -> incr crashes
          | Trace.Unroutable _ -> incr unroutable)
        (Trace.events (Option.get r.Engine.trace));
      let chk name expected got = Alcotest.(check int) (subject.tag ^ ": " ^ name) expected got in
      chk "Send events = msgs_sent" m.Metrics.msgs_sent !sends;
      chk "undelivered Sends = dropped + lost + queue-dropped"
        (m.Metrics.msgs_dropped + m.Metrics.msgs_lost_link + m.Metrics.msgs_dropped_queue)
        !undelivered;
      chk "Link_lost events = msgs_lost_link" m.Metrics.msgs_lost_link !link_lost;
      chk "Queue_dropped events = msgs_dropped_queue" m.Metrics.msgs_dropped_queue
        !queue_dropped;
      chk "Ecn_marked events = msgs_ecn_marked" m.Metrics.msgs_ecn_marked !ecn;
      chk "Unroutable events = msgs_unroutable" m.Metrics.msgs_unroutable !unroutable;
      chk "Crash events = crashed nodes"
        (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.Engine.crashed)
        !crashes)
    [
      (subject "ft-leader-election", None);
      ( subject "ft-agreement-explicit",
        Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Ecn ()) );
      ( subject "push-gossip",
        Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Drop_tail ()) );
      ( subject "ft-leader-election+transport",
        Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Ecn ()) );
    ]

(* ------------------------------------------------------------------ *)
(* Golden fixture: a fast-engine run at n = 8 pinned on disk.         *)

let read_fixture path =
  (* dune runtest runs us next to fixtures/; a manual `dune exec` from
     the project root sees them under test/ instead. *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_text () =
  let n = 8 and alpha = 0.7 and seed = 7 in
  let (module FP : Ftc_sim.Fast_protocol.S) =
    Ftc_core.Leader_election_fast.make ~explicit:true params
  in
  let module E = Engine.Make_codec (FP) in
  let r =
    E.run
      {
        Engine.n;
        alpha;
        seed;
        inputs = Some (Array.make n 0);
        adversary = Strategy.eager ();
        link = Ftc_sim.Link.reliable;
        queue = Some (Queue_model.make ~capacity:2 ~discipline:Queue_model.Ecn ());
        congest_limit = Some (Congest.default_limit ~n);
        record_trace = true;
        max_rounds_override = None;
        watchdog = None;
        round_clock = None;
      }
  in
  let m = r.Engine.metrics in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  Format.asprintf
    "fast-engine golden: ft-leader-election-explicit n=%d alpha=%g seed=%d eager ecn(2)@\n\
     decisions: %s@\nfaulty: %s@\ncrashed: %s@\ncrash_round: %s@\nrounds_used: %d@\n\
     trace_events: %d@\n%a@\nper-round msgs: %s@\nper-round bits: %s@\n\
     per-round ecn marks: %s@\nper-round queue peak: %s@\n"
    n alpha seed
    (String.concat " " (Array.to_list (Array.map Decision.to_string r.Engine.decisions)))
    (ints (Array.map (fun b -> if b then 1 else 0) r.Engine.faulty))
    (ints (Array.map (fun b -> if b then 1 else 0) r.Engine.crashed))
    (ints r.Engine.crash_round) r.Engine.rounds_used
    (List.length (Trace.events (Option.get r.Engine.trace)))
    Metrics.pp m (ints m.Metrics.per_round_msgs) (ints m.Metrics.per_round_bits)
    (ints m.Metrics.per_round_ecn_marks)
    (ints m.Metrics.per_round_queue_peak)

let golden_path = "fixtures/fast-golden-n8.txt"

let test_golden_fixture () =
  let actual = golden_text () in
  match Sys.getenv_opt "FTC_REGEN_GOLDEN" with
  | Some dest ->
      let oc = open_out dest in
      output_string oc actual;
      close_out oc
  | None ->
      let expected = read_fixture golden_path in
      Alcotest.(check string) "fast-engine n=8 run matches the pinned fixture" expected actual

(* ------------------------------------------------------------------ *)
(* Replay files: v1..v4 round-trip and dual-engine replay.            *)

let replay_fixtures =
  [
    "fixtures/replay-v1.ftc"; "fixtures/replay-v2.ftc"; "fixtures/replay-v3.ftc";
    "fixtures/replay-v4.ftc";
  ]

let header_version text =
  let line =
    List.find
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  match String.split_on_char ' ' line with
  | _ :: v :: _ -> int_of_string v
  | _ -> Alcotest.failf "bad replay header: %s" line

(* Every on-disk format version parses, re-prints under its own version
   number, and the printed form is a fixed point: parse it again and
   print it again, bit-identically. (The fixture files themselves carry
   comments and hand-written floats, so the canonical form — not the
   raw file — is what round-trips exactly.) *)
let test_replay_roundtrip () =
  List.iter
    (fun path ->
      let text = read_fixture path in
      let v = header_version text in
      match Chaos.Replay.of_string text with
      | Error e -> Alcotest.failf "%s: parse failed: %s" path e
      | Ok (case, expect) -> (
          Alcotest.(check bool)
            (path ^ ": minimal version within header version")
            true
            (Chaos.Replay.version_of case <= v);
          let printed = Chaos.Replay.to_string ~version:v ~expect case in
          Alcotest.(check int) (path ^ ": printed header keeps version") v
            (header_version printed);
          match Chaos.Replay.of_string printed with
          | Error e -> Alcotest.failf "%s: reparse failed: %s" path e
          | Ok (case2, expect2) ->
              Alcotest.(check bool) (path ^ ": case round-trips") true
                (Chaos.Case.equal case case2);
              Alcotest.(check (list string)) (path ^ ": expect round-trips") expect expect2;
              Alcotest.(check string)
                (path ^ ": canonical form is a fixed point")
                printed
                (Chaos.Replay.to_string ~version:v ~expect:expect2 case2)))
    replay_fixtures

(* The reference interpreter's execution of a case, judged by the same
   oracles [Case.run] applies. *)
let reference_case_run (case : Chaos.Case.t) =
  let entry = Option.get (Chaos.Catalog.find case.protocol) in
  let protocol =
    if case.transport then fst (Ftc_transport.Transport.wrap (entry.Chaos.Catalog.make ()))
    else entry.Chaos.Catalog.make ()
  in
  let (module P : Ftc_sim.Protocol.S) = protocol in
  let module R = Reference_engine.Make (P) in
  let result =
    R.run
      {
        Engine.n = case.n;
        alpha = case.alpha;
        seed = case.seed;
        inputs = Some case.inputs;
        adversary =
          (match case.adversary with
          | Some name -> (List.assoc name (Strategy.all ())) ()
          | None ->
              if case.plan = [] then Ftc_sim.Adversary.none else Strategy.scheduled case.plan ());
        link = Omission.to_link case.loss;
        queue = case.queue;
        congest_limit =
          Some ((if case.transport then 2 else 1) * Congest.default_limit ~n:case.n);
        record_trace = true;
        max_rounds_override = None;
        watchdog = None;
        round_clock = None;
      }
  in
  let lossy_raw =
    (case.loss <> Omission.No_loss
    || match case.queue with Some q -> Queue_model.can_drop q | None -> false)
    && not case.transport
  in
  (result, Chaos.Oracle.check ~lossy_raw entry ~inputs:case.inputs result)

(* Every fixture replays through [Case.run] — the election's codec port
   for the transportless v1/v2, the adapter under the transport wrapper
   for v3/v4 — to the reference interpreter's run: decisions, metrics,
   trace, and oracle verdicts. *)
let test_replay_both_engines () =
  List.iter
    (fun path ->
      match Chaos.Replay.of_string (read_fixture path) with
      | Error e -> Alcotest.failf "%s: parse failed: %s" path e
      | Ok (case, _) -> (
          match Chaos.Case.run case with
          | Error e -> Alcotest.failf "%s: replay: %s" path (Chaos.Case.error_to_string e)
          | Ok (result, findings) ->
              let expected, expected_findings = reference_case_run case in
              check_same ~ctx:path expected result;
              Alcotest.(check (list string))
                (path ^ ": findings agree")
                (List.map (fun f -> Format.asprintf "%a" Chaos.Oracle.pp f) expected_findings)
                (List.map (fun f -> Format.asprintf "%a" Chaos.Oracle.pp f) findings)))
    replay_fixtures

let base_case : Chaos.Case.t =
  {
    Chaos.Case.protocol = "ft-leader-election";
    n = 4;
    alpha = 0.7;
    seed = 1;
    inputs = Array.make 4 0;
    plan = [];
    adversary = None;
    loss = Omission.No_loss;
    queue = None;
    transport = false;
  }

let test_replay_version_of () =
  let chk name expected case =
    Alcotest.(check int) name expected (Chaos.Replay.version_of case)
  in
  chk "bare case is v1" 1 base_case;
  chk "loss needs v2" 2 { base_case with loss = Omission.Uniform 0.1 };
  chk "transport needs v2" 2 { base_case with transport = true };
  chk "named adversary needs v3" 3 { base_case with adversary = Some "eager" };
  chk "queue needs v4" 4
    {
      base_case with
      queue = Some (Queue_model.make ~capacity:4 ~discipline:Queue_model.Drop_tail ());
    };
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : string) -> false
  in
  Alcotest.(check bool) "to_string rejects a too-old version" true
    (raises (fun () ->
         Chaos.Replay.to_string ~version:1
           { base_case with loss = Omission.Uniform 0.1 }));
  Alcotest.(check bool) "to_string rejects an unknown version" true
    (raises (fun () -> Chaos.Replay.to_string ~version:5 base_case))

(* ------------------------------------------------------------------ *)
(* Runner integration: the fast_protocol spec field.                  *)

let test_runner_fast_routing () =
  let spec =
    {
      (Runner.default_spec (Ftc_core.Leader_election.make params) ~n:48 ~alpha:0.7) with
      adversary = Strategy.eager;
      record_trace = true;
    }
  in
  let classic = Runner.run spec ~seed:3 in
  let fast =
    Runner.run
      { spec with Runner.fast_protocol = Some (Ftc_core.Leader_election_fast.make params) }
      ~seed:3
  in
  Alcotest.(check (array int)) "inputs agree" classic.Runner.inputs_used fast.Runner.inputs_used;
  check_same ~ctx:"runner fast routing" classic.Runner.result fast.Runner.result

(* The port cannot run under the transport (the wrapper transforms a
   Protocol.S), so the runner takes the adapter there: a spec naming a
   port runs exactly as the same spec without one. *)
let test_runner_fast_under_transport () =
  let spec =
    {
      (Runner.default_spec (Ftc_core.Leader_election.make params) ~n:32 ~alpha:0.7) with
      adversary = Strategy.eager;
      link = (fun () -> Omission.to_link (Omission.Uniform 0.05));
      transport = Some Ftc_transport.Transport.default_config;
      record_trace = true;
    }
  in
  List.iter
    (fun seed ->
      let ctx = Printf.sprintf "transport seed %d" seed in
      let plain = Runner.run spec ~seed in
      let ported =
        Runner.run
          { spec with Runner.fast_protocol = Some (Ftc_core.Leader_election_fast.make params) }
          ~seed
      in
      check_same ~ctx plain.Runner.result ported.Runner.result;
      Alcotest.(check bool) (ctx ^ ": transport stats agree") true
        (plain.Runner.transport_stats = ported.Runner.transport_stats))
    [ 1; 2; 3 ]

(* [Case.run] is validation, [Runner.run] and the oracles: for every
   catalog protocol — fault-free, under an adversary, loss, a queue and
   the transport — its result is the runner's on the case mapped to a
   spec by hand. *)
let test_case_run_is_runner_run () =
  let spec_of (case : Chaos.Case.t) =
    let entry = Option.get (Chaos.Catalog.find case.protocol) in
    {
      (Runner.default_spec (entry.Chaos.Catalog.make ()) ~n:case.n ~alpha:case.alpha) with
      Runner.inputs = Runner.Exact case.inputs;
      adversary =
        (match case.adversary with
        | Some name -> List.assoc name (Strategy.all ())
        | None -> Strategy.none);
      link = (fun () -> Omission.to_link case.loss);
      queue = case.queue;
      transport = (if case.transport then Some Ftc_transport.Transport.default_config else None);
      record_trace = true;
      fast_protocol = Option.map (fun mk -> mk ()) entry.Chaos.Catalog.fast;
    }
  in
  let variants =
    [
      ("fault-free", Fun.id);
      ("adversary", fun (c : Chaos.Case.t) -> { c with adversary = Some "random" });
      ("loss", fun c -> { c with loss = Omission.Uniform 0.1 });
      ("queue", fun c -> { c with queue = snd queues.(1) });
      ("transport", fun c -> { c with loss = Omission.Uniform 0.05; transport = true });
    ]
  in
  List.iter
    (fun (entry : Chaos.Catalog.entry) ->
      List.iter
        (fun (tag, vary) ->
          List.iter
            (fun seed ->
              let case =
                vary
                  (Chaos.Case.of_seed ~protocol:entry.name ~n:24 ~alpha:0.7 ~adversary:None seed)
              in
              let ctx = Printf.sprintf "%s %s seed %d" entry.name tag seed in
              match Chaos.Case.run case with
              | Error e -> Alcotest.failf "%s: %s" ctx (Chaos.Case.error_to_string e)
              | Ok (result, _) ->
                  check_same ~ctx (Runner.run (spec_of case) ~seed).Runner.result result)
            [ 1; 2 ])
        variants)
    (Chaos.Catalog.all @ Chaos.Catalog.extras)

(* ------------------------------------------------------------------ *)
(* Satellite regression: aggregation over an empty trial list.        *)

let test_aggregate_empty () =
  let a = Runner.aggregate_stats [] in
  Alcotest.(check int) "trials" 0 a.Runner.trials;
  Alcotest.(check int) "successes" 0 a.Runner.successes;
  Alcotest.(check (float 0.)) "success_rate" 0. a.Runner.success_rate;
  Alcotest.(check int) "msgs summary is the zero summary" 0 a.Runner.msgs.Ftc_analysis.Stats.count;
  Alcotest.(check bool) "aggregate_stats [] = empty_aggregate" true (a = Runner.empty_aggregate);
  Alcotest.(check bool) "aggregate ~ok [] = empty_aggregate" true
    (Runner.aggregate ~ok:(fun _ -> true) [] = Runner.empty_aggregate)

let test_aggregate_singleton () =
  let a =
    Runner.aggregate_stats [ { Runner.success = true; msgs = 10; bits = 80; rounds = 3 } ]
  in
  Alcotest.(check int) "trials" 1 a.Runner.trials;
  Alcotest.(check (float 0.)) "success_rate" 1. a.Runner.success_rate;
  Alcotest.(check (float 0.)) "msgs mean" 10. a.Runner.msgs.Ftc_analysis.Stats.mean;
  Alcotest.(check (float 0.)) "rounds mean" 3. a.Runner.rounds.Ftc_analysis.Stats.mean

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fast_engine"
    [
      ( "differential",
        [
          Alcotest.test_case "all pairs x adversaries, traced" `Quick test_sweep_adversaries;
          Alcotest.test_case "all pairs x loss x queue, traced" `Quick test_sweep_loss_queue;
          QCheck_alcotest.to_alcotest qcheck_differential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fast trace reconciles with metrics" `Quick
            test_fast_trace_reconciles_with_metrics;
        ] );
      ("golden", [ Alcotest.test_case "n=8 fixture" `Quick test_golden_fixture ]);
      ( "replay",
        [
          Alcotest.test_case "v1-v4 parse and re-print bit-identically" `Quick
            test_replay_roundtrip;
          Alcotest.test_case "v1-v4 replay identically on both engines" `Quick
            test_replay_both_engines;
          Alcotest.test_case "version_of and to_string ~version" `Quick test_replay_version_of;
        ] );
      ( "runner",
        [
          Alcotest.test_case "fast_protocol spec routes to the fast engine" `Quick
            test_runner_fast_routing;
          Alcotest.test_case "fast_protocol under transport runs the adapter" `Quick
            test_runner_fast_under_transport;
          Alcotest.test_case "Case.run equals Runner.run on the mapped spec" `Quick
            test_case_run_is_runner_run;
          Alcotest.test_case "aggregate of no trials is the zero aggregate" `Quick
            test_aggregate_empty;
          Alcotest.test_case "aggregate of one trial" `Quick test_aggregate_singleton;
        ] );
    ]
