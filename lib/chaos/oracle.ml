module Engine = Ftc_sim.Engine
module Trace = Ftc_sim.Trace
module Violation = Ftc_sim.Violation
module Props = Ftc_core.Properties

type finding = { oracle : string; detail : string }

let finding oracle fmt = Format.kasprintf (fun detail -> { oracle; detail }) fmt

let check_model (r : Engine.result) =
  match r.violations with
  | [] -> []
  | vs ->
      [
        finding "model" "%d model violation(s): %s" (List.length vs)
          (String.concat "; " (List.map Violation.to_string vs));
      ]

let check_congest (r : Engine.result) =
  if r.metrics.congest_violations = 0 then []
  else [ finding "congest" "%d CONGEST budget violations" r.metrics.congest_violations ]

let check_termination (entry : Catalog.entry) (r : Engine.result) =
  if entry.quiesces && r.timed_out then
    [ finding "termination" "run hit the round budget (%d) with messages in flight" r.rounds_used ]
  else []

let check_trace_metrics (r : Engine.result) =
  match r.trace with
  | None -> []
  | Some t ->
      let c = Trace.counts t in
      let mismatch what a b = finding "trace-metrics" "%s: trace %d <> metrics %d" what a b in
      let crashed_count = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.crashed in
      (* Every link loss and queue drop is also an undelivered Send event,
         so the trace's undelivered count must cover all three loss causes
         the metrics track. *)
      let m = r.metrics in
      List.concat
        [
          (if c.sends <> m.msgs_sent then [ mismatch "sends" c.sends m.msgs_sent ] else []);
          (if c.bits <> m.bits_sent then [ mismatch "bits" c.bits m.bits_sent ] else []);
          (if c.undelivered <> m.msgs_dropped + m.msgs_lost_link + m.msgs_dropped_queue then
             [
               mismatch "undelivered" c.undelivered
                 (m.msgs_dropped + m.msgs_lost_link + m.msgs_dropped_queue);
             ]
           else []);
          (if c.link_lost <> m.msgs_lost_link then
             [ mismatch "link-losses" c.link_lost m.msgs_lost_link ]
           else []);
          (if c.queue_dropped <> m.msgs_dropped_queue then
             [ mismatch "queue-drops" c.queue_dropped m.msgs_dropped_queue ]
           else []);
          (if c.ecn_marked <> m.msgs_ecn_marked then
             [ mismatch "ecn-marks" c.ecn_marked m.msgs_ecn_marked ]
           else []);
          (if c.unroutable <> m.msgs_unroutable then
             [ mismatch "unroutable" c.unroutable m.msgs_unroutable ]
           else []);
          (if c.crashes <> crashed_count then [ mismatch "crashes" c.crashes crashed_count ]
           else []);
        ]

let check_election ~explicit (r : Engine.result) =
  if explicit then begin
    let rep = Props.check_explicit_election r in
    if rep.ok then []
    else
      [
        finding "election-explicit"
          "live leaders %d, live undecided %d, unaware %d, named ranks %d" rep.base.live_leaders
          rep.base.live_undecided rep.live_unaware rep.distinct_named_ranks;
      ]
  end
  else begin
    let rep = Props.check_implicit_election r in
    if rep.ok then []
    else
      [
        finding "election" "live leaders %d, live undecided %d" rep.live_leaders
          rep.live_undecided;
      ]
  end

let check_agreement ~explicit ~inputs (r : Engine.result) =
  let rep =
    if explicit then Props.check_explicit_agreement ~inputs r
    else Props.check_implicit_agreement ~inputs r
  in
  if rep.ok then []
  else
    [
      finding
        (if explicit then "agreement-explicit" else "agreement")
        "deciders %d, undecided %d, values [%s], valid %b" rep.live_deciders rep.live_undecided
        (String.concat "," (List.map string_of_int rep.distinct_values))
        rep.valid;
    ]

let check ?(lossy_raw = false) (entry : Catalog.entry) ~inputs (r : Engine.result) =
  List.concat
    [
      check_model r;
      check_congest r;
      check_trace_metrics r;
      (* A raw (transport-less) protocol under omission faults is outside
         its own model: failing to elect/agree/terminate is measured
         degradation, not a bug. Accounting invariants still apply. *)
      (if lossy_raw then []
       else
         List.concat
           [
             check_termination entry r;
             (match entry.kind with
             | Catalog.Election -> check_election ~explicit:entry.explicit r
             | Catalog.Agreement -> check_agreement ~explicit:entry.explicit ~inputs r);
           ]);
    ]

let pp ppf f = Format.fprintf ppf "[%s] %s" f.oracle f.detail

let same_oracle (a : finding list) (b : finding list) =
  List.exists (fun f -> List.exists (fun g -> g.oracle = f.oracle) a) b
