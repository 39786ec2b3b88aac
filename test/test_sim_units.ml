(* Unit tests for the small simulator modules: Decision, Observation,
   Metrics, Trace, and the Fanout broadcast helper. *)

module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Metrics = Ftc_sim.Metrics
module Trace = Ftc_sim.Trace
module Fanout = Ftc_sim.Fanout
module Protocol = Ftc_sim.Protocol

let test_decision_equal () =
  let open Decision in
  let all = [ Undecided; Elected; Not_elected; Follower 1; Follower 2; Agreed 0; Agreed 1 ] in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check bool)
            (Printf.sprintf "equal iff same (%d,%d)" i j)
            (i = j) (equal a b))
        all)
    all

let test_decision_to_string () =
  Alcotest.(check string) "undecided" "undecided" (Decision.to_string Decision.Undecided);
  Alcotest.(check string) "agreed" "agreed(1)" (Decision.to_string (Decision.Agreed 1));
  Alcotest.(check string) "follower" "follower(9)" (Decision.to_string (Decision.Follower 9))

let test_observation_default () =
  Alcotest.(check bool) "bystander role" true
    (Observation.bystander.Observation.role = Observation.Bystander);
  Alcotest.(check bool) "no rank" true (Observation.bystander.Observation.rank = None);
  Alcotest.(check bool) "undecided" false Observation.bystander.Observation.has_decided

let test_observation_pp () =
  let s = Format.asprintf "%a" Observation.pp Observation.bystander in
  Alcotest.(check bool) "mentions role" true
    (Astring.String.is_infix ~affix:"bystander" s)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:10 ~delivered:true;
  Metrics.record_send m ~round:0 ~bits:5 ~delivered:false;
  Metrics.record_send m ~round:2 ~bits:1 ~delivered:true;
  Metrics.record_violation m;
  Metrics.finish m ~rounds:3;
  Alcotest.(check int) "sent" 3 m.Metrics.msgs_sent;
  Alcotest.(check int) "dropped" 1 m.Metrics.msgs_dropped;
  Alcotest.(check int) "bits" 16 m.Metrics.bits_sent;
  Alcotest.(check int) "violations" 1 m.Metrics.congest_violations;
  Alcotest.(check int) "rounds" 3 m.Metrics.rounds_used;
  Alcotest.(check (array int)) "per-round" [| 2; 0; 1 |] m.Metrics.per_round_msgs

let test_metrics_per_round_growth () =
  (* Rounds beyond the initial capacity must not be lost. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:500 ~bits:1 ~delivered:true;
  Metrics.finish m ~rounds:501;
  Alcotest.(check int) "late round recorded" 1 m.Metrics.per_round_msgs.(500);
  Alcotest.(check int) "length trimmed" 501 (Array.length m.Metrics.per_round_msgs)

let test_metrics_finish_rounds_zero () =
  (* A run stopped at round boundary 0 must keep its round-0 sends:
     finish ~rounds:0 used to truncate the per-round view to empty. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:4 ~delivered:true;
  Metrics.record_send m ~round:0 ~bits:4 ~delivered:true;
  Metrics.finish m ~rounds:0;
  Alcotest.(check (array int)) "round-0 sends survive" [| 2 |] m.Metrics.per_round_msgs;
  Alcotest.(check (array int)) "bits view too" [| 8 |] m.Metrics.per_round_bits

let test_metrics_per_round_drops () =
  (* The drop view reconciles with the aggregates round by round:
     crash drops + link losses + unroutable sends, at their rounds. *)
  let m = Metrics.create () in
  Metrics.record_send m ~round:0 ~bits:1 ~delivered:false;
  Metrics.record_link_loss m ~round:1 ~bits:1;
  Metrics.record_unroutable m ~round:2;
  Metrics.record_send m ~round:2 ~bits:1 ~delivered:true;
  Metrics.finish m ~rounds:3;
  Alcotest.(check (array int)) "drops per round" [| 1; 1; 1 |] m.Metrics.per_round_drops;
  Alcotest.(check int) "unroutable counted" 1 m.Metrics.msgs_unroutable;
  Alcotest.(check int) "unroutable not sent" 3 m.Metrics.msgs_sent;
  Alcotest.(check int)
    "aggregate = sum of drop view"
    (m.Metrics.msgs_dropped + m.Metrics.msgs_lost_link + m.Metrics.msgs_unroutable)
    (Array.fold_left ( + ) 0 m.Metrics.per_round_drops)

let test_metrics_sparkline () =
  Alcotest.(check string) "zero is _" "_" (Metrics.sparkline [| 0 |]);
  Alcotest.(check string) "max is #" "_#" (Metrics.sparkline [| 0; 9 |]);
  Alcotest.(check string) "empty" "" (Metrics.sparkline [||]);
  let s = Metrics.sparkline [| 0; 1; 5; 10 |] in
  Alcotest.(check int) "one cell per round" 4 (String.length s);
  Alcotest.(check bool) "pp carries it" true
    (let m = Metrics.create () in
     Metrics.record_send m ~round:0 ~bits:1 ~delivered:true;
     Metrics.finish m ~rounds:1;
     Astring.String.is_infix ~affix:"per-round msgs" (Format.asprintf "%a" Metrics.pp m))

let test_trace_order_and_length () =
  let t = Option.get (Trace.create Trace.Log) in
  let e1 = Trace.Send { round = 0; src = 1; dst = 2; bits = 3; delivered = true } in
  let e2 = Trace.Crash { round = 1; node = 1 } in
  Trace.add t e1;
  Trace.add t e2;
  Alcotest.(check int) "length" 2 (Trace.length t);
  match List.rev (Trace.fold (fun acc e -> e :: acc) [] t) with
  | [ a; b ] ->
      Alcotest.(check bool) "chronological order" true (a = e1 && b = e2)
  | _ -> Alcotest.fail "two events expected"

let test_trace_pp_event () =
  let s =
    Format.asprintf "%a" Trace.pp_event
      (Trace.Send { round = 3; src = 1; dst = 2; bits = 7; delivered = false })
  in
  Alcotest.(check bool) "mentions loss" true (Astring.String.is_infix ~affix:"lost" s)

(* The sends of one broadcast, in order. *)
let broadcast ~n ~ports payload =
  let out = ref [] in
  let record dest m = out := (dest, m) :: !out in
  let send =
    {
      Protocol.fresh = record Protocol.Fresh_port;
      port = (fun p -> record (Protocol.Port p));
      node = (fun d -> record (Protocol.Node d));
    }
  in
  Fanout.broadcast send ~n ~ports payload;
  List.rev !out

let test_fanout_counts () =
  let sends = broadcast ~n:10 ~ports:3 "x" in
  Alcotest.(check int) "n-1 sends" 9 (List.length sends);
  Alcotest.(check bool) "known ports first, highest first, then fresh" true
    (List.map fst sends
    = [ Protocol.Port 2; Protocol.Port 1; Protocol.Port 0 ] @ List.init 6 (fun _ -> Protocol.Fresh_port));
  List.iter (fun (_, m) -> Alcotest.(check string) "payload carried" "x" m) sends

let test_fanout_all_known () =
  let sends = broadcast ~n:4 ~ports:3 () in
  Alcotest.(check int) "no fresh needed" 3 (List.length sends);
  Alcotest.(check bool) "all through ports" true
    (List.for_all (function Protocol.Port _, () -> true | _ -> false) sends)

let test_fanout_none_known () =
  let sends = broadcast ~n:4 ~ports:0 () in
  Alcotest.(check int) "all fresh" 3 (List.length sends);
  List.iter
    (fun (dest, ()) -> Alcotest.(check bool) "fresh dest" true (dest = Protocol.Fresh_port))
    sends

let () =
  Alcotest.run "sim-units"
    [
      ( "decision",
        [
          Alcotest.test_case "equal" `Quick test_decision_equal;
          Alcotest.test_case "to_string" `Quick test_decision_to_string;
        ] );
      ( "observation",
        [
          Alcotest.test_case "default" `Quick test_observation_default;
          Alcotest.test_case "pp" `Quick test_observation_pp;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "per-round growth" `Quick test_metrics_per_round_growth;
          Alcotest.test_case "finish at rounds=0" `Quick test_metrics_finish_rounds_zero;
          Alcotest.test_case "per-round drops" `Quick test_metrics_per_round_drops;
          Alcotest.test_case "sparkline" `Quick test_metrics_sparkline;
        ] );
      ( "trace",
        [
          Alcotest.test_case "order" `Quick test_trace_order_and_length;
          Alcotest.test_case "pp" `Quick test_trace_pp_event;
        ] );
      ( "fanout",
        [
          Alcotest.test_case "counts" `Quick test_fanout_counts;
          Alcotest.test_case "all known" `Quick test_fanout_all_known;
          Alcotest.test_case "none known" `Quick test_fanout_none_known;
        ] );
    ]
