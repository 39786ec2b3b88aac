(* Tests for the reliable transport: window arithmetic, config
   validation, and the delivery/overhead guarantees as qcheck properties
   over fuzzed loss rates — no loss means no retransmissions; acked
   messages were delivered exactly once; backoff never exceeds its cap. *)

module Protocol = Ftc_sim.Protocol
module Engine = Ftc_sim.Engine
module Decision = Ftc_sim.Decision
module Observation = Ftc_sim.Observation
module Transport = Ftc_transport.Transport
module Omission = Ftc_fault.Omission

(* A sender that ships [fan] uniquely-numbered payloads through fresh
   ports in each of the first [rounds] (inner) rounds; every delivery is
   tallied per payload in a table owned by this instance, so dedup bugs
   (double delivery) and loss (no delivery) are both visible. *)
let make_probe ~fan ~rounds () =
  let delivered : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let sent = ref 0 in
  let module P = struct
    type msg = int
    type state = { sender : bool }

    let name = "probe"
    let knowledge = `KT0
    let msg_bits ~n:_ _ = 16
    let max_rounds ~n:_ ~alpha:_ = rounds + 2
    let phases = Protocol.single_phase
    let init (ctx : Protocol.ctx) = { sender = ctx.input > 0 }

    let step (_ : Protocol.ctx) st ~round ~inbox ~(send : msg Protocol.send) =
      for k = 0 to Protocol.Inbox.length inbox - 1 do
        let payload = Protocol.Inbox.payload inbox k in
        Hashtbl.replace delivered payload
          (1 + Option.value ~default:0 (Hashtbl.find_opt delivered payload))
      done;
      if st.sender && round < rounds then
        for _ = 1 to fan do
          incr sent;
          send.fresh !sent
        done;
      st

    (* Never decides: keeps the engine from early-stopping between
       windows, so the full send calendar runs. *)
    let idle = Protocol.never_idle
    let decide _ = Decision.Undecided
    let observe _ = Observation.bystander
  end in
  ((module P : Protocol.S), delivered, sent)

let run_wrapped ?(config = Transport.default_config) ?(rate = 0.) ?(n = 32) ?(seed = 1)
    ~fan ~rounds () =
  let probe, delivered, sent = make_probe ~fan ~rounds () in
  let wrapped, stats = Transport.wrap ~config probe in
  let module E = Engine.Make ((val wrapped : Protocol.S)) in
  let inputs = Array.make n 0 in
  inputs.(0) <- 1;
  let link = if rate = 0. then Ftc_sim.Link.reliable else Omission.lossy_uniform ~rate () in
  let r =
    E.run
      {
        (Engine.default_config ~n ~alpha:1.0 ~seed) with
        inputs = Some inputs;
        link;
        congest_limit = None;
      }
  in
  (r, stats, delivered, !sent)

(* -- window arithmetic and config validation -- *)

let test_window () =
  (* Defaults: offsets 0,2,6,14,22 -> last transmission at 22, window 24. *)
  Alcotest.(check int) "default window" 24 (Transport.window Transport.default_config);
  Alcotest.(check int) "no retransmissions: bare RTT"
    2
    (Transport.window { Transport.timeout = 2; backoff_cap = 2; budget = 0 });
  Alcotest.(check int) "cap binds: 2+4+4"
    12
    (Transport.window { Transport.timeout = 2; backoff_cap = 4; budget = 3 })

let test_config_validation () =
  let bad c = Result.is_error (Transport.validate_config c) in
  Alcotest.(check bool) "timeout below RTT" true
    (bad { Transport.timeout = 1; backoff_cap = 8; budget = 4 });
  Alcotest.(check bool) "cap below timeout" true
    (bad { Transport.timeout = 4; backoff_cap = 2; budget = 4 });
  Alcotest.(check bool) "negative budget" true
    (bad { Transport.timeout = 2; backoff_cap = 8; budget = -1 });
  (* The doubling calendar visits timeout, 2*timeout, 4*timeout, ...; a
     cap off that ladder would silently bind a step early. *)
  Alcotest.(check bool) "cap off the doubling ladder" true
    (bad { Transport.timeout = 2; backoff_cap = 6; budget = 4 });
  Alcotest.(check bool) "cap off the ladder (odd base)" true
    (bad { Transport.timeout = 3; backoff_cap = 8; budget = 4 });
  Alcotest.(check bool) "cap equal to timeout valid" true
    (Result.is_ok (Transport.validate_config { Transport.timeout = 3; backoff_cap = 3; budget = 2 }));
  Alcotest.(check bool) "cap on the ladder valid" true
    (Result.is_ok
       (Transport.validate_config { Transport.timeout = 3; backoff_cap = 12; budget = 2 }));
  Alcotest.(check bool) "default valid" true
    (Result.is_ok (Transport.validate_config Transport.default_config));
  match Transport.wrap ~config:{ Transport.timeout = 0; backoff_cap = 8; budget = 1 }
          (Ftc_baselines.Gossip.make ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrap accepted an invalid config"

(* pp_stats is the machine-greppable one-liner in F13/F14 logs and sweep
   reports; its field order is part of the interface. Golden-test it so a
   reordering or rename shows up as a diff here, not in downstream
   parsers. *)
let test_pp_stats_golden () =
  let s = Transport.fresh_stats () in
  Alcotest.(check string) "zeroed stats"
    "data=0 retx=0 acks=0 acked=0 delivered=0 dups=0 gave_up=0 unroutable=0 ecn_backoffs=0 \
     congestion_drops=0 max_timeout=0"
    (Format.asprintf "%a" Transport.pp_stats s);
  s.Transport.data_sent <- 1;
  s.Transport.retransmissions <- 2;
  s.Transport.acks_sent <- 3;
  s.Transport.acked <- 4;
  s.Transport.delivered_unique <- 5;
  s.Transport.duplicates <- 6;
  s.Transport.gave_up <- 7;
  s.Transport.unroutable <- 8;
  s.Transport.ecn_backoffs <- 9;
  s.Transport.congestion_drops <- 10;
  s.Transport.max_timeout <- 11;
  Alcotest.(check string) "distinct values land in declaration order"
    "data=1 retx=2 acks=3 acked=4 delivered=5 dups=6 gave_up=7 unroutable=8 ecn_backoffs=9 \
     congestion_drops=10 max_timeout=11"
    (Format.asprintf "%a" Transport.pp_stats s)

(* -- reliable links: the transport must be pure overhead-free pass-through -- *)

let test_no_loss_no_retransmissions () =
  let r, stats, delivered, sent = run_wrapped ~fan:3 ~rounds:4 () in
  Alcotest.(check (list string)) "no violations" []
    (List.map Ftc_sim.Violation.to_string r.Engine.violations);
  Alcotest.(check int) "12 payloads shipped" 12 sent;
  Alcotest.(check int) "zero retransmissions" 0 stats.Transport.retransmissions;
  Alcotest.(check int) "zero gave-up" 0 stats.Transport.gave_up;
  Alcotest.(check int) "zero duplicates" 0 stats.Transport.duplicates;
  Alcotest.(check int) "every payload delivered" sent (Hashtbl.length delivered);
  Hashtbl.iter
    (fun payload count ->
      Alcotest.(check int) (Printf.sprintf "payload %d exactly once" payload) 1 count)
    delivered;
  Alcotest.(check int) "all data acked" stats.Transport.data_sent stats.Transport.acked;
  Alcotest.(check int) "link losses impossible" 0 r.Engine.metrics.msgs_lost_link

let test_total_loss_gives_up_within_budget () =
  let _, stats, delivered, _ = run_wrapped ~rate:1.0 ~fan:2 ~rounds:2 () in
  Alcotest.(check int) "nothing delivered" 0 (Hashtbl.length delivered);
  Alcotest.(check int) "nothing acked" 0 stats.Transport.acked;
  Alcotest.(check int) "every message abandoned" stats.Transport.data_sent
    stats.Transport.gave_up;
  (* Repeated unacked sends trip the congestion inference exactly once
     per message, which widens its calendar — fewer retransmissions fit
     the window than the budget alone would allow. *)
  Alcotest.(check int) "congestion inferred once per message" stats.Transport.data_sent
    stats.Transport.congestion_drops;
  Alcotest.(check bool) "at least one retransmission per message" true
    (stats.Transport.retransmissions >= stats.Transport.data_sent);
  Alcotest.(check bool) "budget bounds retransmissions" true
    (stats.Transport.retransmissions
    <= stats.Transport.data_sent * Transport.default_config.Transport.budget)

(* -- qcheck properties over fuzzed loss rates and configs -- *)

let qcheck_no_loss_means_no_retx =
  QCheck.Test.make ~name:"rate 0 => no retransmissions, exactly-once delivery" ~count:15
    QCheck.(pair (int_range 0 10_000) (pair (int_range 1 4) (int_range 1 5)))
    (fun (seed, (fan, rounds)) ->
      let _, stats, delivered, sent = run_wrapped ~seed ~fan ~rounds () in
      stats.Transport.retransmissions = 0
      && stats.Transport.duplicates = 0
      && Hashtbl.length delivered = sent
      && Hashtbl.fold (fun _ c acc -> acc && c = 1) delivered true)

let qcheck_acked_delivered_exactly_once =
  QCheck.Test.make ~name:"acked messages were delivered, nothing twice" ~count:25
    QCheck.(pair (int_range 0 10_000) (float_range 0. 0.45))
    (fun (seed, rate) ->
      let _, stats, delivered, sent = run_wrapped ~seed ~rate ~fan:3 ~rounds:4 () in
      (* Dedup: no payload reaches the inner protocol twice. *)
      Hashtbl.fold (fun _ c acc -> acc && c = 1) delivered true
      (* Every ack the sender counted corresponds to a real delivery. *)
      && stats.Transport.acked <= stats.Transport.delivered_unique
      && stats.Transport.delivered_unique <= sent
      && stats.Transport.acked + stats.Transport.gave_up <= stats.Transport.data_sent)

let qcheck_backoff_never_exceeds_cap =
  QCheck.Test.make ~name:"backoff never exceeds the congested cap" ~count:25
    QCheck.(
      quad (int_range 0 10_000) (float_range 0.2 0.9) (int_range 2 4) (int_range 0 6))
    (fun (seed, rate, timeout, budget) ->
      let backoff_cap = timeout * 4 in
      let config = { Transport.timeout; backoff_cap; budget } in
      let _, stats, _, _ = run_wrapped ~config ~seed ~rate ~fan:2 ~rounds:3 () in
      (* The congestion inference may lift the cap 4x for a repeatedly
         lost message; nothing exceeds that lifted cap. *)
      stats.Transport.max_timeout <= 4 * backoff_cap
      && (stats.Transport.data_sent = 0 || stats.Transport.max_timeout >= timeout))

(* -- the wrapped module keeps the inner protocol's contract -- *)

let test_wrapped_module_shape () =
  let (module P : Protocol.S) = Ftc_baselines.Gossip.make () in
  let wrapped, _ = Transport.wrap (module P) in
  let (module W : Protocol.S) = wrapped in
  Alcotest.(check string) "name tagged" (P.name ^ "+transport") W.name;
  Alcotest.(check bool) "knowledge preserved" true (P.knowledge = W.knowledge);
  let w = Transport.window Transport.default_config in
  Alcotest.(check int) "round calendar scaled"
    ((w * P.max_rounds ~n:64 ~alpha:0.7) + 2)
    (W.max_rounds ~n:64 ~alpha:0.7)

let () =
  Alcotest.run "transport"
    [
      ( "config",
        [
          Alcotest.test_case "window arithmetic" `Quick test_window;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "pp_stats golden" `Quick test_pp_stats_golden;
          Alcotest.test_case "wrapped module shape" `Quick test_wrapped_module_shape;
        ] );
      ( "delivery",
        [
          Alcotest.test_case "no loss, no retransmissions" `Quick test_no_loss_no_retransmissions;
          Alcotest.test_case "total loss gives up in budget" `Quick
            test_total_loss_gives_up_within_budget;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_no_loss_means_no_retx;
            qcheck_acked_delivered_exactly_once;
            qcheck_backoff_never_exceeds_cap;
          ] );
    ]
