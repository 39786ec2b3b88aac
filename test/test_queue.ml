(* Tests for the bounded ingress-queue model: the pure RED curve as
   qcheck properties (0 below min_th, 1 at/above max_th, monotone in the
   band), the discipline decisions at the boundaries, config parsing and
   validation, and the engine-level guarantees — drop-tail admits at most
   [capacity] messages per destination per round, ecn never loses a
   message, and queue drops / ECN marks reconcile exactly between the
   trace, the metrics and the receivers' inboxes. *)

module Protocol = Ftc_sim.Protocol
module Engine = Ftc_sim.Engine
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Trace = Ftc_sim.Trace
module Queue_model = Ftc_sim.Queue_model
module Rng = Ftc_rng.Rng

(* -- the pure RED curve -- *)

(* Random valid config + an occupancy around its range. *)
let config_gen =
  QCheck.(
    map
      (fun (cap, a, b, occ) ->
        let capacity = 1 + (cap mod 50) in
        let min_th = a mod (capacity + 1) in
        let max_th = min_th + (b mod (capacity - min_th + 1)) in
        let q = { Queue_model.capacity; discipline = Queue_model.Red; min_th; max_th } in
        (q, occ mod (capacity + 4)))
      (quad (int_range 0 1_000) (int_range 0 1_000) (int_range 0 1_000) (int_range 0 1_000)))

let qcheck_red_zero_below_min =
  QCheck.Test.make ~name:"red probability is 0 below min_th" ~count:200 config_gen
    (fun (q, occ) ->
      QCheck.assume (occ < q.Queue_model.min_th);
      Queue_model.red_probability q ~occupancy:occ = 0.)

let qcheck_red_one_at_max =
  QCheck.Test.make ~name:"red probability is 1 at and above max_th" ~count:200 config_gen
    (fun (q, occ) ->
      QCheck.assume (occ >= q.Queue_model.max_th);
      Queue_model.red_probability q ~occupancy:occ = 1.)

let qcheck_red_monotone =
  QCheck.Test.make ~name:"red probability is monotone in occupancy" ~count:200 config_gen
    (fun (q, occ) ->
      Queue_model.red_probability q ~occupancy:occ
      <= Queue_model.red_probability q ~occupancy:(occ + 1))

let qcheck_red_bounded =
  QCheck.Test.make ~name:"red probability stays in [0,1]" ~count:200 config_gen
    (fun (q, occ) ->
      let p = Queue_model.red_probability q ~occupancy:occ in
      p >= 0. && p <= 1.)

(* -- decisions at the boundaries -- *)

let test_decide_boundaries () =
  let rng = Rng.create 7 in
  let dt = Queue_model.make ~capacity:4 ~discipline:Queue_model.Drop_tail () in
  Alcotest.(check bool) "drop-tail accepts below capacity" true
    (Queue_model.decide dt rng ~occupancy:3 = Queue_model.Accept);
  Alcotest.(check bool) "drop-tail drops at capacity" true
    (Queue_model.decide dt rng ~occupancy:4 = Queue_model.Drop);
  let red = Queue_model.make ~min_th:2 ~max_th:6 ~capacity:8 ~discipline:Queue_model.Red () in
  Alcotest.(check bool) "red accepts below min_th" true
    (Queue_model.decide red rng ~occupancy:1 = Queue_model.Accept);
  Alcotest.(check bool) "red drops at max_th" true
    (Queue_model.decide red rng ~occupancy:6 = Queue_model.Drop);
  Alcotest.(check bool) "red drops at capacity" true
    (Queue_model.decide red rng ~occupancy:8 = Queue_model.Drop);
  let ecn = Queue_model.make ~min_th:2 ~max_th:6 ~capacity:8 ~discipline:Queue_model.Ecn () in
  Alcotest.(check bool) "ecn accepts below min_th" true
    (Queue_model.decide ecn rng ~occupancy:1 = Queue_model.Accept);
  Alcotest.(check bool) "ecn marks at max_th" true
    (Queue_model.decide ecn rng ~occupancy:6 = Queue_model.Mark);
  (* The lossless discipline marks even past capacity — never drops. *)
  for occ = 0 to 20 do
    Alcotest.(check bool)
      (Printf.sprintf "ecn never drops (occupancy %d)" occ)
      true
      (Queue_model.decide ecn rng ~occupancy:occ <> Queue_model.Drop)
  done

let test_config_parse_and_validate () =
  List.iter
    (fun d ->
      let q = Queue_model.make ~capacity:12 ~discipline:d () in
      Alcotest.(check bool)
        ("round-trips: " ^ Queue_model.to_string q)
        true
        (Queue_model.of_string (Queue_model.to_string q) = Some q))
    [ Queue_model.Drop_tail; Queue_model.Red; Queue_model.Ecn ];
  let bad s = Queue_model.of_string s = None in
  Alcotest.(check bool) "zero capacity rejected" true (bad "red 0 0 0");
  Alcotest.(check bool) "min above max rejected" true (bad "red 8 5 3");
  Alcotest.(check bool) "max above capacity rejected" true (bad "red 8 2 9");
  Alcotest.(check bool) "unknown discipline rejected" true (bad "fifo 8 2 6");
  Alcotest.(check bool) "garbage rejected" true (bad "red eight 2 6")

(* -- engine-level guarantees: a funnel protocol that floods node 0 -- *)

(* Every node but 0 ships [fan] messages straight at node 0 (KT1
   addressing) in each of the first [rounds] rounds, so node 0's ingress
   queue is the single hotspot. Receptions and observed ECN bits are
   tallied per inner round in arrays owned by this instance. *)
let run_funnel ?(n = 24) ?(fan = 2) ?(rounds = 4) ?(seed = 3) ?queue ?(trace = false) () =
  let received = Array.make (rounds + 2) 0 in
  let marks = ref 0 in
  let module P = struct
    type msg = Ping
    type state = { me : int }

    let name = "funnel"
    let knowledge = `KT1
    let msg_bits ~n:_ _ = 8
    let max_rounds ~n:_ ~alpha:_ = rounds + 2
    let phases = Protocol.single_phase
    let init (ctx : Protocol.ctx) = { me = Option.value ~default:(-1) ctx.self }

    let step (_ : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
      if st.me = 0 then
        for k = 0 to Protocol.Inbox.length inbox - 1 do
          received.(round - 1) <- received.(round - 1) + 1;
          if Protocol.Inbox.ecn inbox k then incr marks
        done;
      if st.me <> 0 && round < rounds then
        for _ = 1 to fan do
          send.node 0 Ping
        done;
      st

    let idle = Protocol.never_idle
    let decide _ = Decision.Undecided
    let observe _ = Observation.bystander
  end in
  let module E = Engine.Make (P) in
  let r =
    E.run
      {
        (Engine.default_config ~n ~alpha:1.0 ~seed) with
        queue;
        congest_limit = None;
        trace = (if trace then Trace.Log else Trace.Off);
      }
  in
  (r, received, !marks)

let sent_total ~n ~fan ~rounds = (n - 1) * fan * rounds

let test_unbounded_baseline () =
  let n = 24 and fan = 2 and rounds = 4 in
  let r, received, marks = run_funnel ~n ~fan ~rounds () in
  Alcotest.(check (list string)) "no violations" []
    (List.map Ftc_sim.Violation.to_string r.Engine.violations);
  Alcotest.(check int) "all messages delivered" (sent_total ~n ~fan ~rounds)
    (Array.fold_left ( + ) 0 received);
  Alcotest.(check int) "no queue drops" 0 r.Engine.metrics.msgs_dropped_queue;
  Alcotest.(check int) "no marks" 0 r.Engine.metrics.msgs_ecn_marked;
  Alcotest.(check int) "no marks observed" 0 marks

let test_drop_tail_caps_per_round () =
  let n = 24 and fan = 2 and rounds = 4 and cap = 5 in
  let queue = Queue_model.make ~capacity:cap ~discipline:Queue_model.Drop_tail () in
  let r, received, marks = run_funnel ~n ~fan ~rounds ~queue () in
  Array.iteri
    (fun i got ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d admits at most the capacity" i)
        true (got <= cap))
    received;
  let delivered = Array.fold_left ( + ) 0 received in
  Alcotest.(check int) "drops account for the rest" (sent_total ~n ~fan ~rounds - delivered)
    r.Engine.metrics.msgs_dropped_queue;
  Alcotest.(check bool) "the funnel actually overflows" true
    (r.Engine.metrics.msgs_dropped_queue > 0);
  Alcotest.(check int) "drop-tail never marks" 0 r.Engine.metrics.msgs_ecn_marked;
  Alcotest.(check int) "no marks observed" 0 marks

let test_ecn_never_loses () =
  let n = 24 and fan = 2 and rounds = 4 in
  let queue = Queue_model.make ~capacity:5 ~discipline:Queue_model.Ecn () in
  let r, received, marks = run_funnel ~n ~fan ~rounds ~queue () in
  Alcotest.(check int) "every message delivered" (sent_total ~n ~fan ~rounds)
    (Array.fold_left ( + ) 0 received);
  Alcotest.(check int) "zero queue drops" 0 r.Engine.metrics.msgs_dropped_queue;
  Alcotest.(check bool) "the hotspot is marked" true (r.Engine.metrics.msgs_ecn_marked > 0);
  Alcotest.(check int) "receivers observe exactly the marked messages"
    r.Engine.metrics.msgs_ecn_marked marks

let test_trace_reconciles () =
  let n = 24 and fan = 2 and rounds = 4 in
  let queue = Queue_model.make ~min_th:1 ~max_th:4 ~capacity:6 ~discipline:Queue_model.Red () in
  let r, _, _ = run_funnel ~n ~fan ~rounds ~queue ~trace:true () in
  match r.Engine.trace with
  | None -> Alcotest.fail "trace missing"
  | Some t ->
      let sends = ref 0 and undelivered = ref 0 and qdrops = ref 0 and emarks = ref 0 in
      Trace.iter
        (function
          | Trace.Send { delivered; _ } ->
              incr sends;
              if not delivered then incr undelivered
          | Trace.Queue_dropped _ -> incr qdrops
          | Trace.Ecn_marked _ -> incr emarks
          | Trace.Crash _ | Trace.Link_lost _ | Trace.Unroutable _ -> ())
        t;
      Alcotest.(check int) "sends = metrics" r.Engine.metrics.msgs_sent !sends;
      Alcotest.(check bool) "red early-drops under load" true (!qdrops > 0);
      Alcotest.(check int) "queue-drop events = metric" r.Engine.metrics.msgs_dropped_queue
        !qdrops;
      Alcotest.(check int) "ecn-mark events = metric" r.Engine.metrics.msgs_ecn_marked !emarks;
      Alcotest.(check int) "undelivered = crash drops + link losses + queue drops"
        (r.Engine.metrics.msgs_dropped + r.Engine.metrics.msgs_lost_link
        + r.Engine.metrics.msgs_dropped_queue)
        !undelivered;
      Alcotest.(check int) "per-round queue drops sum to the total"
        r.Engine.metrics.msgs_dropped_queue
        (Array.fold_left ( + ) 0 r.Engine.metrics.per_round_queue_drops)

let test_queue_determinism () =
  let queue = Queue_model.make ~min_th:1 ~max_th:4 ~capacity:6 ~discipline:Queue_model.Red () in
  let a, _, _ = run_funnel ~seed:11 ~queue () in
  let b, _, _ = run_funnel ~seed:11 ~queue () in
  Alcotest.(check int) "same drops" a.Engine.metrics.msgs_dropped_queue
    b.Engine.metrics.msgs_dropped_queue;
  Alcotest.(check int) "same msgs" a.Engine.metrics.msgs_sent b.Engine.metrics.msgs_sent

let () =
  Alcotest.run "queue"
    [
      ( "red-curve",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_red_zero_below_min;
            qcheck_red_one_at_max;
            qcheck_red_monotone;
            qcheck_red_bounded;
          ] );
      ( "decisions",
        [
          Alcotest.test_case "boundaries" `Quick test_decide_boundaries;
          Alcotest.test_case "parse + validate" `Quick test_config_parse_and_validate;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unbounded baseline" `Quick test_unbounded_baseline;
          Alcotest.test_case "drop-tail caps per round" `Quick test_drop_tail_caps_per_round;
          Alcotest.test_case "ecn never loses" `Quick test_ecn_never_loses;
          Alcotest.test_case "trace reconciles" `Quick test_trace_reconciles;
          Alcotest.test_case "deterministic" `Quick test_queue_determinism;
        ] );
    ]
