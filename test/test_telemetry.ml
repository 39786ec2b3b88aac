(* Unit tests for the telemetry subsystem: log-scale histograms, the
   metric registry, phase-span cutting, and the exporters — including
   the Chrome-trace round trip through the journal's JSON codec. *)

module Hist = Ftc_telemetry.Hist
module Registry = Ftc_telemetry.Registry
module Span = Ftc_telemetry.Span
module Recorder = Ftc_telemetry.Recorder
module Export = Ftc_telemetry.Export
module Event = Ftc_telemetry.Event
module Flight = Ftc_telemetry.Flight
module Json = Ftc_journal.Json

(* -- histogram bucketing -- *)

let test_hist_bucket_boundaries () =
  (* Bucket 0 holds v <= 0; bucket i holds [2^(i-1), 2^i). *)
  Alcotest.(check int) "zero" 0 (Hist.bucket_of 0);
  Alcotest.(check int) "negative" 0 (Hist.bucket_of (-7));
  Alcotest.(check int) "one" 1 (Hist.bucket_of 1);
  Alcotest.(check int) "two" 2 (Hist.bucket_of 2);
  Alcotest.(check int) "three" 2 (Hist.bucket_of 3);
  Alcotest.(check int) "four" 3 (Hist.bucket_of 4);
  (* Every power of two starts its own bucket; its predecessor ends the
     bucket below. *)
  for i = 1 to Hist.n_buckets - 2 do
    let lo = 1 lsl (i - 1) in
    Alcotest.(check int) (Printf.sprintf "2^%d starts bucket" (i - 1)) i (Hist.bucket_of lo);
    if i > 1 then
      Alcotest.(check int)
        (Printf.sprintf "2^%d - 1 ends bucket below" (i - 1))
        (i - 1)
        (Hist.bucket_of (lo - 1))
  done

let test_hist_overflow_bucket () =
  let top = Hist.n_buckets - 1 in
  let first_overflow = 1 lsl (Hist.n_buckets - 2) in
  Alcotest.(check int) "first overflowing value" top (Hist.bucket_of first_overflow);
  Alcotest.(check int) "max_int overflows" top (Hist.bucket_of max_int);
  Alcotest.(check int)
    "largest non-overflow" (top - 1)
    (Hist.bucket_of (first_overflow - 1));
  Alcotest.(check int) "overflow upper bound" max_int (Hist.upper_bound top)

let test_hist_record_and_digest () =
  let h = Hist.create () in
  List.iter (Hist.record h) [ 1; 2; 3; 100; 0 ];
  Alcotest.(check int) "count" 5 (Hist.count h);
  Alcotest.(check int) "sum" 106 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 100 (Hist.max_value h);
  Alcotest.(check (float 0.001)) "mean" 21.2 (Hist.mean h);
  Alcotest.(check int) "quantile clamped to max" 100 (Hist.quantile h 1.0);
  Alcotest.(check int) "median in range" (Hist.quantile h 0.5) (Hist.quantile h 0.5);
  let b = Hist.buckets h in
  Alcotest.(check int) "bucket array length" Hist.n_buckets (Array.length b);
  Alcotest.(check int) "all samples bucketed" 5 (Array.fold_left ( + ) 0 b)

(* -- registry -- *)

let test_registry_ops () =
  let r = Registry.create () in
  Registry.incr r "c" 2;
  Registry.incr r "c" 3;
  Registry.set_gauge r "g" 7;
  Registry.gauge_max r "g" 4;
  Registry.gauge_max r "g" 9;
  Registry.observe r "h" 5;
  match Registry.snapshot r with
  | [ ("c", Registry.Counter 5); ("g", Registry.Gauge 9); ("h", Registry.Hist h) ] ->
      Alcotest.(check int) "hist count" 1 (Hist.count h)
  | other -> Alcotest.fail (Printf.sprintf "unexpected snapshot (%d entries)" (List.length other))

let test_registry_disabled_and_kinds () =
  Registry.incr Registry.disabled "c" 1;
  Registry.observe Registry.disabled "h" 1;
  Alcotest.(check int) "disabled stays empty" 0 (List.length (Registry.snapshot Registry.disabled));
  let r = Registry.create () in
  Registry.incr r "c" 1;
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: c registered with another kind") (fun () ->
      Registry.set_gauge r "c" 1)

(* -- span cutting -- *)

let test_span_cut () =
  let spans =
    Span.cut ~protocol:"p" ~track:"seed-1"
      ~phases:[ ("a", 0); ("b", 2); ("c", 8) ]
      ~rounds_used:5
      ~per_round_msgs:[| 10; 10; 1; 1; 1 |]
      ~per_round_bits:[| 40; 40; 4; 4; 4 |]
      ~round_ns:[| 100L; 100L; 10L; 10L; 10L |]
      ~start_ns:1000L
  in
  (* "c" starts past rounds_used, so only "a" and "b" survive; "b" is
     clipped to the rounds that ran. *)
  match spans with
  | [ a; b ] ->
      Alcotest.(check string) "first phase" "a" a.Span.phase;
      Alcotest.(check int) "a msgs" 20 a.Span.msgs;
      Alcotest.(check int) "a bits" 80 a.Span.bits;
      Alcotest.(check int64) "a start offset" 1000L a.Span.start_ns;
      Alcotest.(check int64) "a duration" 200L a.Span.dur_ns;
      Alcotest.(check string) "second phase" "b" b.Span.phase;
      Alcotest.(check int) "b end clipped" 5 b.Span.end_round;
      Alcotest.(check int) "b msgs" 3 b.Span.msgs;
      Alcotest.(check int64) "b start offset" 1200L b.Span.start_ns;
      Alcotest.(check int64) "b duration" 30L b.Span.dur_ns
  | other -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length other))

let test_span_cut_synthetic_run_phase () =
  match
    Span.cut ~protocol:"p" ~track:"t"
      ~phases:[ ("late", 2) ]
      ~rounds_used:4
      ~per_round_msgs:[| 1; 1; 1; 1 |]
      ~per_round_bits:[| 2; 2; 2; 2 |]
      ~round_ns:[||] ~start_ns:0L
  with
  | [ run; late ] ->
      Alcotest.(check string) "synthetic prefix" "run" run.Span.phase;
      Alcotest.(check int) "prefix covers the gap" 2 run.Span.end_round;
      Alcotest.(check string) "declared phase kept" "late" late.Span.phase;
      Alcotest.(check int64) "no clock, zero duration" 0L late.Span.dur_ns
  | other -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length other))

(* -- the event vocabulary -- *)

(* The recorder's log and the flight ring hold one type. *)
let _ : Recorder.event -> Flight.ev = Fun.id

let span =
  {
    Span.protocol = "p";
    track = "seed-1";
    phase = "a";
    start_round = 0;
    end_round = 2;
    msgs = 20;
    bits = 80;
    start_ns = 1000L;
    dur_ns = 200L;
  }

(* One of every constructor, optional fields both ways. *)
let every_event =
  [
    Event.Span span;
    Event.Trial
      {
        track = "seed-1";
        protocol = "p";
        seed = 1;
        ok = true;
        msgs = 23;
        bits = 92;
        rounds = 5;
        start_ns = 1000L;
        dur_ns = 230L;
      };
    Event.Job { pool = "trials"; worker = 0; start_ns = 990L; dur_ns = 260L; wait_ns = 40L };
    Event.Heartbeat { at_ns = 1300L; completed = 1; failed = 0; total = 1; verdict = None };
    Event.Heartbeat
      { at_ns = 1400L; completed = 1; failed = 1; total = 2; verdict = Some (7, "violation") };
    Event.Admitted { ticket = 3; id = "c9"; protocol = "p"; n = 8; seed = 7 };
    Event.Shed { id = "c10"; hint_ms = 12; draining = true };
    Event.Started { ticket = 3; attempt = 1; worker = 1 };
    Event.Round { ticket = 3; round = 4 };
    Event.Decided { ticket = 3; class_ = "ok"; ok = true };
    Event.Requeued { ticket = 3; attempt = 1 };
    Event.Reaped { worker = 1; ticket = Some 3; detail = "killed" };
    Event.Reaped { worker = 0; ticket = None; detail = "idle \"quoted\"" };
    Event.Respawned { worker = 1; ticket = Some 3 };
    Event.Respawned { worker = 0; ticket = None };
    Event.Budget_exhausted { ticket = 3 };
    Event.Injected { kind = "kill-worker"; ticket = 3 };
    Event.Note "serving";
  ]

(* Fails to compile when a constructor is added, as a reminder to give
   it a sample above. *)
let _covered : Event.event -> unit = function
  | Span _ | Trial _ | Job _ | Heartbeat _ | Admitted _ | Shed _ | Started _ | Round _
  | Decided _ | Requeued _ | Reaped _ | Respawned _ | Budget_exhausted _ | Injected _ | Note _ ->
      ()

let sample_metrics () =
  let r = Registry.create () in
  Registry.incr r "ftc_trials_total" 1;
  Registry.set_gauge r "ftc_pool_queue_depth_peak" 3;
  Registry.observe r "ftc_trial_msgs" 23;
  Registry.snapshot r

let file_of ?(metrics = []) events =
  {
    Event.reason = "test";
    capacity_ = 0;
    recorded = List.length events;
    dropped_ = 0;
    metrics;
    entries = List.mapi (fun seq ev -> { Event.seq; at_ns = Int64.of_int (10 * seq); ev }) events;
  }

let temp_path () = Filename.temp_file "ftc-events" ".jsonl"

let write_load f =
  let path = temp_path () in
  Event.write ~path f;
  let loaded = Event.load ~path in
  Sys.remove path;
  match loaded with Ok f -> f | Error e -> Alcotest.fail e

let test_every_event_round_trips () =
  Alcotest.(check int) "every kind sampled" 15
    (List.length (List.sort_uniq compare (List.map Event.kind every_event)));
  List.iter
    (fun ev ->
      match Event.of_json (Event.to_json ev) with
      | Ok ev' -> Alcotest.(check bool) ("codec: " ^ Event.pp ev) true (ev = ev')
      | Error e -> Alcotest.fail e)
    every_event;
  let f = file_of every_event in
  let f' = write_load f in
  Alcotest.(check bool) "file: entries identical" true (f'.entries = f.entries);
  Alcotest.(check string) "file: reason" "test" f'.reason;
  match Event.check f' with Ok () -> () | Error e -> Alcotest.fail e

let load_string content =
  let path = temp_path () in
  Out_channel.with_open_bin path (fun oc -> output_string oc content);
  let r = Event.load ~path in
  Sys.remove path;
  r

let test_loader_rejects_bad_files () =
  let header v =
    Printf.sprintf
      {|{"ftc_events":%d,"reason":"x","capacity":0,"recorded":1,"dropped":0,"metrics":[]}|} v
  in
  let file ?(version = Event.file_version) lines = String.concat "\n" (header version :: lines) in
  let note = {|{"seq":0,"at_ns":5,"event":{"ev":"note","text":"a"}}|} in
  (match load_string (file [ note ]) with
  | Ok f -> Alcotest.(check int) "the handcrafted file loads" 1 (List.length f.entries)
  | Error e -> Alcotest.fail e);
  let rejects label content =
    Alcotest.(check bool) label true (Result.is_error (load_string content))
  in
  rejects "empty file" "";
  rejects "missing header" note;
  rejects "unknown version" (file ~version:99 [ note ]);
  rejects "malformed line" (file [ {|{"seq":0,"at_ns":5,"event":{"ev":"bogus"}}|} ]);
  rejects "torn line" (file [ {|{"seq":0,"at_ns"|} ]);
  rejects "version-1 black box"
    {|{"blackbox":1,"reason":"x","capacity":1,"recorded":0,"dropped":0}|}

(* -- exporters -- *)

let sample_entries = (file_of (List.filteri (fun i _ -> i < 4) every_event)).entries

let test_events_jsonl_round_trip () =
  let metrics = sample_metrics () in
  let f' = write_load (file_of ~metrics (List.map (fun (e : Event.entry) -> e.ev) sample_entries)) in
  Alcotest.(check int) "metric count" (List.length metrics) (List.length f'.metrics);
  Alcotest.(check bool) "entries identical" true (f'.entries = sample_entries);
  List.iter2
    (fun (n, v) (n', v') ->
      Alcotest.(check string) "metric name" n n';
      match (v, v') with
      | Registry.Counter a, Registry.Counter b -> Alcotest.(check int) "counter" a b
      | Registry.Gauge a, Registry.Gauge b -> Alcotest.(check int) "gauge" a b
      | Registry.Hist a, Registry.Hist b ->
          Alcotest.(check int) "hist count" (Hist.count a) (Hist.count b);
          Alcotest.(check int) "hist sum" (Hist.sum a) (Hist.sum b);
          Alcotest.(check (array int)) "hist buckets" (Hist.buckets a) (Hist.buckets b)
      | _ -> Alcotest.fail "metric kind changed in transit")
    metrics f'.metrics

let test_chrome_trace_round_trip () =
  (* The trace must survive a print → parse cycle through the journal
     codec and satisfy the structural validator Perfetto needs. *)
  let body = Json.to_string (Export.chrome_trace (file_of every_event).entries) in
  (match Json.of_string body with
  | Error e -> Alcotest.fail ("trace.json does not re-parse: " ^ e)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check bool) "has events" true (List.length evs > 0);
          List.iter
            (fun ev ->
              let ph =
                match Option.bind (Json.member "ph" ev) Json.to_str with
                | Some ph -> ph
                | None -> Alcotest.fail "event without ph"
              in
              if ph <> "M" then
                Alcotest.(check bool) "ts present" true (Json.member "ts" ev <> None);
              if ph = "X" then begin
                let dur =
                  match Option.bind (Json.member "dur" ev) Json.to_int with
                  | Some d -> d
                  | None -> Alcotest.fail "complete event without dur"
                in
                Alcotest.(check bool) "dur at least 1us" true (dur >= 1)
              end)
            evs
      | _ -> Alcotest.fail "no traceEvents array"));
  match Export.validate_trace_json body with
  | Ok n -> Alcotest.(check bool) "validator counts events" true (n > 0)
  | Error e -> Alcotest.fail e

let test_prometheus_snapshot () =
  let body = Export.prometheus (sample_metrics ()) in
  (match Export.validate_prometheus body with
  | Ok n -> Alcotest.(check bool) "has samples" true (n > 0)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "counter typed" true
    (Astring.String.is_infix ~affix:"# TYPE ftc_trials_total counter" body);
  Alcotest.(check bool) "histogram cumulative +Inf" true
    (Astring.String.is_infix ~affix:"ftc_trial_msgs_bucket{le=\"+Inf\"}" body)

let test_summary_mentions_phases () =
  let s = Export.summary (file_of ~metrics:(sample_metrics ()) every_event) in
  Alcotest.(check bool) "trial line" true (Astring.String.is_infix ~affix:"trials: 1" s);
  Alcotest.(check bool) "phase row" true (Astring.String.is_infix ~affix:"a" s);
  Alcotest.(check bool) "protocol column" true (Astring.String.is_infix ~affix:"p" s)

let test_validators_reject_garbage () =
  (match Export.validate_trace_json "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage trace"
  | Error _ -> ());
  (match Export.validate_trace_json "{\"traceEvents\": 3}" with
  | Ok _ -> Alcotest.fail "accepted non-array traceEvents"
  | Error _ -> ());
  match Export.validate_prometheus "metric_without_value\n" with
  | Ok _ -> Alcotest.fail "accepted sample without value"
  | Error _ -> ()

(* A keep-going sweep with failures: the supervisor's per-trial
   heartbeat names each trial's seed and outcome class, and the trials
   themselves still emit exactly one [Trial] each. crash-probe under
   first-send breaks agreement on 16 of seeds 1..20. *)
let test_sweep_verdict_heartbeats () =
  let module Case = Ftc_chaos.Case in
  let module Supervise = Ftc_expt.Supervise in
  let recorder = Recorder.create () in
  let case seed =
    Case.of_seed ~protocol:"crash-probe" ~n:8 ~alpha:0.7 ~adversary:(Some "first-send") seed
  in
  let run_trial seed =
    match Case.run ~recorder (case seed) with
    | Error e -> Error (Supervise.Exception, Case.error_to_string e)
    | Ok (_, []) -> Ok ()
    | Ok (_, _ :: _) -> Error (Supervise.Violation, "oracle findings")
  in
  let sweep =
    Supervise.run
      { Supervise.default_config with jobs = 2; keep_going = true; recorder }
      ~spec_hash:"verdicts" ~encode:(fun _ () -> Json.Null) ~decode:(fun _ -> None) ~run_trial
      ~seeds:(List.init 20 (fun i -> i + 1))
      ()
  in
  Alcotest.(check int) "16 failed" 16 (List.length sweep.failed);
  let events = Recorder.events recorder in
  let verdicts =
    List.filter_map (function Recorder.Heartbeat { verdict; _ } -> verdict | _ -> None) events
    |> List.sort compare
  in
  Alcotest.(check (list int)) "one verdict heartbeat per seed" (List.init 20 (fun i -> i + 1))
    (List.map fst verdicts);
  Alcotest.(check int) "16 violation verdicts" 16
    (List.length (List.filter (fun (_, c) -> c = "violation") verdicts));
  Alcotest.(check int) "exactly 20 Trial events" 20
    (List.length (List.filter (function Recorder.Trial _ -> true | _ -> false) events))

let test_recorder_disabled () =
  Alcotest.(check bool) "disabled" false (Recorder.enabled Recorder.disabled);
  Alcotest.(check int64) "clock never read" 0L (Recorder.now_ns Recorder.disabled);
  Recorder.emit Recorder.disabled (List.hd every_event);
  Alcotest.(check int) "no events kept" 0 (List.length (Recorder.events Recorder.disabled));
  Alcotest.(check bool) "registry disabled too" false
    (Registry.enabled (Recorder.registry Recorder.disabled))

let () =
  Alcotest.run "telemetry"
    [
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_hist_bucket_boundaries;
          Alcotest.test_case "overflow bucket" `Quick test_hist_overflow_bucket;
          Alcotest.test_case "record and digest" `Quick test_hist_record_and_digest;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ops and snapshot" `Quick test_registry_ops;
          Alcotest.test_case "disabled and kinds" `Quick test_registry_disabled_and_kinds;
        ] );
      ( "span",
        [
          Alcotest.test_case "cut" `Quick test_span_cut;
          Alcotest.test_case "synthetic run phase" `Quick test_span_cut_synthetic_run_phase;
        ] );
      ( "export",
        [
          Alcotest.test_case "events.jsonl round trip" `Quick test_events_jsonl_round_trip;
          Alcotest.test_case "chrome trace round trip" `Quick test_chrome_trace_round_trip;
          Alcotest.test_case "prometheus snapshot" `Quick test_prometheus_snapshot;
          Alcotest.test_case "summary" `Quick test_summary_mentions_phases;
          Alcotest.test_case "validators reject garbage" `Quick test_validators_reject_garbage;
        ] );
      ( "recorder",
        [ Alcotest.test_case "disabled recorder" `Quick test_recorder_disabled ] );
      ( "event",
        [
          Alcotest.test_case "every constructor round-trips" `Quick test_every_event_round_trips;
          Alcotest.test_case "loader rejects bad files" `Quick test_loader_rejects_bad_files;
          Alcotest.test_case "sweep heartbeats carry verdicts" `Quick test_sweep_verdict_heartbeats;
        ] );
    ]
