(* The ftc command-line interface.

   Subcommands:
     election   — run one fault-tolerant leader election and report it
     agreement  — run one fault-tolerant agreement and report it
     sweep      — run a seeded trial sweep of any catalog protocol under
                  the crash-safe supervisor (journal/resume/quarantine)
     expt       — run experiments from DESIGN.md's index (T1, F1..F12)
     clouds     — run a protocol with tracing and print its influence-cloud
                  decomposition (the lower-bound object)
     chaos      — fuzz adversaries across every registered protocol; on a
                  violation, shrink and write a replay file
     verify     — exhaustively enumerate every adversary schedule at small
                  n (with symmetry reduction) against the safety oracles
     serve      — long-running election/agreement service: bounded
                  admission, supervised crash-restarting workers, live
                  fault injection, graceful SIGTERM drain
     client     — open-loop load generator for serve, with ladder backoff
     replay     — deterministically re-execute a saved chaos reproducer,
                  or every entry of a quarantine file
     trace      — summarise or regenerate a --telemetry output directory
     list       — list experiments, protocols and adversaries

   Exit codes of supervised sweeps (election/agreement/sweep): 0 = every
   trial completed and passed, 3 = partial (some trials failed or were
   skipped, at least one completed), 1 = nothing usable, 2 = usage error
   (including resuming against a journal of a different sweep). *)

open Cmdliner
module Supervise = Ftc_expt.Supervise
module Json = Ftc_journal.Json

let params = Ftc_core.Params.default

let adversary_of_name name =
  match List.assoc_opt name (Ftc_fault.Strategy.all ()) with
  | Some make -> Ok make
  | None ->
      Error
        (Printf.sprintf "unknown adversary %s (known: %s)" name
           (String.concat ", " (List.map fst (Ftc_fault.Strategy.all ()))))

(* -- shared arguments -- *)

let n_arg =
  Arg.(value & opt int 1024 & info [ "n" ] ~docv:"N" ~doc:"Network size (number of nodes).")

let alpha_arg =
  Arg.(
    value
    & opt float 0.7
    & info [ "a"; "alpha" ] ~docv:"ALPHA"
        ~doc:"Guaranteed non-faulty fraction; up to $(b,(1-ALPHA)n) nodes may crash.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root random seed.")

let adversary_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "adversary" ] ~docv:"NAME"
        ~doc:"Crash adversary: none, dormant, eager, random, targeted-min-rank, first-send, \
              silence-candidates.")

let explicit_arg =
  Arg.(value & flag & info [ "explicit" ] ~doc:"Run the explicit variant (everyone learns).")

let loss_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "loss" ] ~docv:"P"
        ~doc:"Omission-fault rate on live links, in [0,1]. 0 = the paper's reliable model.")

let loss_model_arg =
  Arg.(
    value
    & opt string "uniform"
    & info [ "loss-model" ] ~docv:"MODEL"
        ~doc:"Loss model: uniform (i.i.d.), burst (Gilbert channel, mean burst 3), or targeted \
              (referee replies to the best candidate).")

let transport_arg =
  Arg.(
    value
    & flag
    & info [ "transport" ]
        ~doc:"Wrap the protocol in the ack/retransmit reliable transport (doubles the CONGEST \
              budget for the framing).")

(* Shared by every command taking --loss: bad rates and unknown models are
   usage errors (exit 2), mirroring the chaos --budget check. *)
let parse_loss ~loss ~model =
  if loss < 0. || loss > 1. then begin
    Printf.eprintf "--loss must be in [0,1] (got %g)\n" loss;
    exit 2
  end;
  let spec =
    if loss = 0. then Ftc_fault.Omission.No_loss
    else
      match model with
      | "uniform" -> Ftc_fault.Omission.Uniform loss
      | "burst" -> Ftc_fault.Omission.Burst { rate = loss; mean_len = 3. }
      | "targeted" -> Ftc_fault.Omission.Targeted loss
      | m ->
          Printf.eprintf "--loss-model must be uniform, burst or targeted (got %s)\n" m;
          exit 2
  in
  match Ftc_fault.Omission.validate spec with
  | Ok () -> spec
  | Error e ->
      Printf.eprintf "--loss: %s\n" e;
      exit 2

let queue_cap_arg =
  Arg.(
    value
    & opt int 0
    & info [ "queue-cap" ] ~docv:"K"
        ~doc:
          "Bound each destination's per-round ingress queue at $(docv) messages. 0 = the \
           paper's unbounded links. Excess arrivals are dropped or ECN-marked per \
           $(b,--queue-model).")

let queue_model_arg =
  Arg.(
    value
    & opt string "drop-tail"
    & info [ "queue-model" ] ~docv:"MODEL"
        ~doc:
          "Queue discipline once $(b,--queue-cap) is set: drop-tail (hard cut at capacity), \
           red (probabilistic early drop between the RED thresholds), or ecn (congestion mark \
           instead of drop — lossless).")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("classic", `Classic); ("fast", `Fast) ]) `Classic
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Accepted for compatibility: every run uses the one round engine, with a protocol's \
           hand-written codec port wherever one applies. $(b,fast) is recorded in journal \
           spec hashes, and under $(b,expt --full) adds F1/F2's extended decades up to \
           n = 10^6.")

(* sweep, chaos and verify never took --engine. A stray one on them is
   a usage error (exit 2), never a silent no-op. *)
let reject_engine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Rejected with exit 2. This command has no engine choice. Only $(b,election), \
           $(b,agreement) and $(b,expt) take $(b,--engine).")

let reject_engine ~cmd = function
  | None -> ()
  | Some v ->
      Printf.eprintf
        "ftc %s does not take --engine (got %s). Only election, agreement and expt take \
         --engine.\n"
        cmd v;
      exit 2

(* Shared by every command taking --queue-cap: bad capacities and unknown
   disciplines are usage errors (exit 2), mirroring parse_loss. *)
let parse_queue ~cap ~model =
  if cap < 0 then begin
    Printf.eprintf "--queue-cap must be non-negative (got %d)\n" cap;
    exit 2
  end;
  if cap = 0 then None
  else
    match Ftc_sim.Queue_model.discipline_of_string model with
    | None ->
        Printf.eprintf "--queue-model must be drop-tail, red or ecn (got %s)\n" model;
        exit 2
    | Some discipline -> Some (Ftc_sim.Queue_model.make ~capacity:cap ~discipline ())

let trials_arg =
  Arg.(value & opt int 1 & info [ "trials" ] ~docv:"K" ~doc:"Number of seeded repetitions.")

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the trial loops. Trials are seed-independent, so any value \
           produces bit-identical results; more jobs only finish sooner.")

(* The paper's model (n >= 2, 0 < alpha <= 1), stated once in
   [Engine.validate_model]: a bad n or alpha is a usage error (exit 2). *)
let parse_model ~n ~alpha =
  match Ftc_sim.Engine.validate_model ~n ~alpha with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "%s (got n=%d, alpha=%g)\n" e n alpha;
      exit 2

(* Shared by every command taking --jobs: a non-positive count is a usage
   error (exit 2), like the other argument checks. *)
let parse_jobs jobs =
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be at least 1 (got %d)\n" jobs;
    exit 2
  end;
  jobs

(* Report fragments are built as strings, not printed directly: the
   supervised trial loop journals each trial's rendered report verbatim,
   which is what makes a resumed sweep's stdout byte-identical to an
   uninterrupted one. *)
let metrics_lines (r : Ftc_sim.Engine.result) =
  Printf.sprintf
    "  rounds: %d   messages: %s   bits: %s   dropped: %d   link-lost: %d   crashed: %d\n"
    r.rounds_used
    (Ftc_analysis.Table.fmt_int r.metrics.msgs_sent)
    (Ftc_analysis.Table.fmt_int r.metrics.bits_sent)
    r.metrics.msgs_dropped r.metrics.msgs_lost_link
    (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 r.crashed)

let report_metrics r = print_string (metrics_lines r)

let transport_lines (o : Ftc_expt.Runner.outcome) =
  match o.transport_stats with
  | None -> ""
  | Some s ->
      Printf.sprintf "  transport: %s\n" (Format.asprintf "%a" Ftc_transport.Transport.pp_stats s)

(* -- sweep supervision (election, agreement, sweep) -- *)

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead trial journal: every completed trial is appended and flushed as it \
           finishes, so a killed sweep can be resumed with $(b,--resume) $(docv) and re-runs \
           only the missing seeds.")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from the journal of an interrupted run of the $(i,same) sweep: journaled \
           seeds are skipped, the rest run and are appended to $(docv). The output is \
           bit-identical to an uninterrupted run. A journal recorded for a different sweep \
           is rejected (exit 2).")

let keep_going_arg =
  Arg.(
    value
    & flag
    & info [ "keep-going" ]
        ~doc:
          "Do not abort the sweep on a failed trial: record the failure in the quarantine \
           file and keep running the remaining seeds. Exit 3 signals partial results.")

let trial_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "trial-timeout" ] ~docv:"SECS"
        ~doc:
          "Per-trial wall-clock budget. A trial past it is stopped cooperatively at the next \
           round boundary and classified as a watchdog failure.")

let quarantine_arg =
  Arg.(
    value
    & opt string "quarantine.jsonl"
    & info [ "quarantine" ] ~docv:"FILE"
        ~doc:
          "Where failed trials are recorded (one JSON object per line, with an embedded \
           replay document when one exists). Written atomically, only when there are \
           failures. Re-run them with $(b,ftc replay --quarantine) $(docv).")

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"DIR"
        ~doc:
          "Record telemetry — phase spans along the protocol's calendar, per-trial events, \
           pool utilisation, sweep heartbeats and the metric registry — and write \
           $(docv)/events.jsonl, trace.json (Chrome trace-event JSON, loadable in Perfetto) \
           and metrics.prom on exit. Inspect with $(b,ftc trace summary) $(docv). Telemetry \
           writes only to $(docv) and stderr; stdout is byte-identical to an uninstrumented \
           run.")

(* The recorder and flight ring for a --telemetry run, plus the flush
   that writes the artifacts once the sweep is done. Telemetry never
   touches stdout — the note goes to stderr — so reference/resumed
   stdout diffs stay clean with telemetry on. *)
let blackbox_file = "blackbox.jsonl"

let with_telemetry ?(flight_capacity = 4096) dir f =
  match dir with
  | None -> f Ftc_telemetry.Recorder.disabled Ftc_telemetry.Flight.disabled
  | Some dir ->
      let recorder = Ftc_telemetry.Recorder.create () in
      let flight = Ftc_telemetry.Flight.create ~capacity:flight_capacity in
      let code = f recorder flight in
      Ftc_telemetry.Export.write_dir ~dir recorder;
      Ftc_telemetry.Flight.dump flight ~path:(Filename.concat dir blackbox_file)
        ~reason:"sweep-end";
      Printf.eprintf "telemetry: wrote %s/{%s,%s,%s,%s}\n" dir Ftc_telemetry.Export.events_file
        Ftc_telemetry.Export.trace_file Ftc_telemetry.Export.prom_file blackbox_file;
      code

(* A non-positive per-trial budget is a usage error (exit 2). *)
let parse_trial_timeout = function
  | Some t when t <= 0. ->
      Printf.eprintf "--trial-timeout must be positive (got %g)\n" t;
      exit 2
  | t -> t

let supervise_config ?(stop = fun () -> false)
    ?(flight = Ftc_telemetry.Flight.disabled) ~recorder ~jobs ~keep_going ~journal ~resume
    ~quarantine () =
  let journal, resume =
    match (journal, resume) with
    | Some _, Some _ ->
        prerr_endline "--journal and --resume are mutually exclusive";
        exit 2
    | None, Some path -> (Some path, true)
    | j, None -> (j, false)
  in
  {
    Supervise.jobs;
    keep_going;
    journal;
    resume;
    quarantine = Some quarantine;
    recorder;
    flight;
    stop;
  }

(* The journaled payload of one completed trial: its rendered report and
   whether the trial's own check passed. *)
type trial_payload = { report : string; success : bool }

let encode_payload seed p =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("success", Json.Bool p.success);
      ("report", Json.String p.report);
    ]

let decode_payload j =
  match
    ( Option.bind (Json.member "seed" j) Json.to_int,
      Option.bind (Json.member "success" j) Json.to_bool,
      Option.bind (Json.member "report" j) Json.to_str )
  with
  | Some seed, Some success, Some report -> Some (seed, { report; success })
  | _ -> None

let spec_hash_of parts = Ftc_journal.Journal.spec_hash (String.concat "\n" parts)

let queue_hash_line queue =
  "queue="
  ^ (match queue with None -> "none" | Some q -> Ftc_sim.Queue_model.to_string q)

(* Print a finished sweep: per-seed reports in seed order (journaled ones
   verbatim — stdout is byte-identical under resume), failures inline,
   the usual success summary, and the supervision summary on stderr so
   reference/resumed stdout diffs stay clean. *)
let render_sweep ~trials sweep =
  let successes = ref 0 in
  List.iter
    (fun (seed, t) ->
      match t with
      | Supervise.Completed p ->
          print_string p.report;
          if p.success then incr successes
      | Supervise.Failed f ->
          Printf.printf "seed %d: FAILED (%s)\n" seed (Supervise.class_to_string f.class_)
      | Supervise.Skipped -> ())
    sweep.Supervise.trials;
  if trials > 1 then Printf.printf "success: %d/%d\n" !successes trials;
  List.iter
    (fun (f : Supervise.failure) ->
      Printf.eprintf "seed %d [%s]: %s\n" f.seed (Supervise.class_to_string f.class_) f.detail)
    sweep.Supervise.failed;
  if sweep.Supervise.resumed > 0 then
    Printf.eprintf "resumed: %d trial(s) restored from the journal\n" sweep.Supervise.resumed;
  if sweep.Supervise.skipped > 0 then
    Printf.eprintf "skipped: %d trial(s) not run after the first failure (use --keep-going)\n"
      sweep.Supervise.skipped;
  (match sweep.Supervise.quarantined with
  | Some path ->
      Printf.eprintf "quarantined: %d failed trial(s) recorded in %s\n"
        (List.length sweep.Supervise.failed) path
  | None -> ());
  Supervise.exit_code ~ok:(!successes = sweep.Supervise.completed) sweep

let run_supervised config ~spec_hash ?replay_doc ~run_trial ~seed ~trials () =
  let seeds = List.init trials (fun i -> seed + i) in
  match
    Supervise.run config ~spec_hash ~encode:encode_payload ~decode:decode_payload ?replay_doc
      ~run_trial ~seeds ()
  with
  | sweep -> render_sweep ~trials sweep
  | exception Supervise.Resume_error msg ->
      Printf.eprintf "cannot resume: %s\n" msg;
      exit 2

(* Violations and watchdog expiry are supervision failures; a trial that
   merely misses its property (no leader, disagreement) is a completed,
   unsuccessful trial — exactly what the plain runs always reported. *)
let classify_for_cli o =
  match Supervise.classify_outcome o with
  | Some ((Supervise.Violation | Supervise.Watchdog_expired), _) as c -> c
  | _ -> None

(* -- election and agreement commands -- *)

let election_report ~explicit seed (o : Ftc_expt.Runner.outcome) =
  let b = Buffer.create 256 in
  let rep = Ftc_core.Properties.check_implicit_election o.result in
  Buffer.add_string b
    (Printf.sprintf "seed %d: %s" seed (if rep.ok then "elected a unique leader" else "FAILED"));
  (match rep.leader with
  | Some l ->
      Buffer.add_string b
        (Printf.sprintf " (node %d, %s)" l
           (if Option.value ~default:false rep.leader_was_faulty then "faulty" else "non-faulty"))
  | None ->
      Buffer.add_string b
        (Printf.sprintf " (leaders: %d, undecided: %d)" rep.live_leaders rep.live_undecided));
  Buffer.add_char b '\n';
  Buffer.add_string b (metrics_lines o.result);
  Buffer.add_string b (transport_lines o);
  let success =
    if explicit then begin
      let er = Ftc_core.Properties.check_explicit_election o.result in
      Buffer.add_string b
        (Printf.sprintf "  explicit: %s (unaware: %d)\n"
           (if er.ok then "everyone knows the leader" else "FAILED")
           er.live_unaware);
      rep.ok
    end
    else rep.ok
  in
  { report = Buffer.contents b; success }

let agreement_report ~explicit seed (o : Ftc_expt.Runner.outcome) =
  let b = Buffer.create 256 in
  let rep = Ftc_core.Properties.check_implicit_agreement ~inputs:o.inputs_used o.result in
  Buffer.add_string b
    (Printf.sprintf "seed %d: %s" seed
       (if rep.ok then
          Printf.sprintf "agreed on %s with %d deciders"
            (match rep.value with Some v -> string_of_int v | None -> "?")
            rep.live_deciders
        else
          Printf.sprintf "FAILED (values: %s)"
            (String.concat "," (List.map string_of_int rep.distinct_values))));
  Buffer.add_char b '\n';
  Buffer.add_string b (metrics_lines o.result);
  Buffer.add_string b (transport_lines o);
  if explicit then begin
    let er = Ftc_core.Properties.check_explicit_agreement ~inputs:o.inputs_used o.result in
    Buffer.add_string b
      (Printf.sprintf "  explicit: %s (undecided: %d)\n"
         (if er.ok then "everyone decided" else "FAILED")
         er.live_undecided)
  end;
  { report = Buffer.contents b; success = rep.ok }

(* election and agreement: one supervised-trial body, differing only in
   the protocol, its codec port, the inputs, the report and the extra
   spec-hash lines. *)
let supervised_trials ~cmd ~explicit ~hash_lines ~protocol ?fast_protocol ~inputs ~report n
    alpha seed adversary_name trials loss loss_model queue_cap queue_model transport_on engine
    jobs keep_going journal resume quarantine trial_timeout telemetry =
  parse_model ~n ~alpha;
  let loss = parse_loss ~loss ~model:loss_model in
  let queue = parse_queue ~cap:queue_cap ~model:queue_model in
  let jobs = parse_jobs jobs in
  let trial_timeout = parse_trial_timeout trial_timeout in
  match adversary_of_name adversary_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok adversary ->
      with_telemetry telemetry @@ fun recorder flight ->
      let config =
        supervise_config ~flight ~recorder ~jobs ~keep_going ~journal ~resume ~quarantine ()
      in
      let spec =
        {
          (Ftc_expt.Runner.default_spec protocol ~n ~alpha) with
          Ftc_expt.Runner.inputs;
          adversary;
          link = (fun () -> Ftc_fault.Omission.to_link loss);
          queue;
          transport = (if transport_on then Some Ftc_transport.Transport.default_config else None);
          trial_timeout;
          fast_protocol;
        }
      in
      (* The engine line is appended only for --engine fast, so journals
         of default runs keep their historical hash. *)
      let spec_hash =
        spec_hash_of
          ([
             cmd;
             Printf.sprintf "explicit=%b" explicit;
             Printf.sprintf "n=%d" n;
             Printf.sprintf "alpha=%.17g" alpha;
             "adversary=" ^ adversary_name;
           ]
          @ hash_lines
          @ [
              "loss=" ^ Ftc_fault.Omission.spec_to_string loss;
              queue_hash_line queue;
              Printf.sprintf "transport=%b" transport_on;
            ]
          @ if engine = `Fast then [ "engine=fast" ] else [])
      in
      let run_trial seed =
        let o = Ftc_expt.Runner.run ~recorder spec ~seed in
        match classify_for_cli o with
        | Some failure -> Error failure
        | None -> Ok (report seed o)
      in
      run_supervised config ~spec_hash ~run_trial ~seed ~trials ()

let election n alpha seed adversary_name explicit =
  supervised_trials ~cmd:"election" ~explicit ~hash_lines:[]
    ~protocol:(Ftc_core.Leader_election.make ~explicit params)
    ~fast_protocol:(Ftc_core.Leader_election_fast.make ~explicit params)
    ~inputs:Ftc_expt.Runner.Zeros ~report:(election_report ~explicit) n alpha seed
    adversary_name

let agreement n alpha seed adversary_name explicit ones_prob =
  supervised_trials ~cmd:"agreement" ~explicit
    ~hash_lines:[ Printf.sprintf "ones=%.17g" ones_prob ]
    ~protocol:(Ftc_core.Agreement.make ~explicit params)
    ~inputs:(Ftc_expt.Runner.Random_bits ones_prob) ~report:(agreement_report ~explicit) n
    alpha seed adversary_name

(* -- sweep command -- *)

let sweep_report seed (result : Ftc_sim.Engine.result) =
  { report = Printf.sprintf "seed %d: clean\n%s" seed (metrics_lines result); success = true }

let sweep protocol_name n alpha seed adversary_name trials loss loss_model queue_cap queue_model
    transport_on jobs keep_going journal resume quarantine trial_timeout telemetry engine =
  reject_engine ~cmd:"sweep" engine;
  let loss = parse_loss ~loss ~model:loss_model in
  let queue = parse_queue ~cap:queue_cap ~model:queue_model in
  let jobs = parse_jobs jobs in
  let trial_timeout = parse_trial_timeout trial_timeout in
  let mk_case =
    Ftc_chaos.Case.of_seed ~loss ?queue ~transport:transport_on ~protocol:protocol_name ~n
      ~alpha ~adversary:(Some adversary_name)
  in
  (* Every trial's case differs from the first only in its seed and the
     inputs drawn from it, so validating the first validates them all. *)
  (match Ftc_chaos.Case.validate (mk_case seed) with
  | Error e ->
      prerr_endline (Ftc_chaos.Case.error_to_string e);
      exit 2
  | Ok _ -> ());
  with_telemetry telemetry @@ fun recorder flight ->
  (* SIGTERM = drain, mirroring ftc serve: stop admitting queued trials,
     let running ones finish and be journaled (the WAL already flushes
     per trial, so the checkpoint is free), exit 3 for partial results.
     Resume with --resume to run the rest. *)
  let sigterm = Atomic.make false in
  (try
     Sys.set_signal Sys.sigterm
       (Sys.Signal_handle
          (fun _ ->
            Atomic.set sigterm true;
            prerr_endline "sigterm: draining — finishing in-flight trials, journal checkpointed"))
   with Invalid_argument _ -> ());
  let config =
    supervise_config
      ~stop:(fun () -> Atomic.get sigterm)
      ~flight ~recorder ~jobs ~keep_going ~journal ~resume ~quarantine ()
  in
  let spec_hash =
    spec_hash_of
      [
        "sweep";
        "protocol=" ^ protocol_name;
        Printf.sprintf "n=%d" n;
        Printf.sprintf "alpha=%.17g" alpha;
        "adversary=" ^ adversary_name;
        "loss=" ^ Ftc_fault.Omission.spec_to_string loss;
        queue_hash_line queue;
        Printf.sprintf "transport=%b" transport_on;
      ]
  in
  let run_trial seed =
    let watchdog = Option.map Ftc_expt.Runner.deadline trial_timeout in
    match Ftc_chaos.Case.run ?watchdog ~recorder (mk_case seed) with
    | Error e -> Error (Supervise.Exception, Ftc_chaos.Case.error_to_string e)
    | Ok (result, findings) -> (
        if result.Ftc_sim.Engine.watchdog_expired then
          Error
            ( Supervise.Watchdog_expired,
              Printf.sprintf "trial exceeded its wall-clock budget after %d rounds"
                result.Ftc_sim.Engine.rounds_used )
        else
          match findings with
          | [] -> Ok (sweep_report seed result)
          | fs ->
              Error
                ( Supervise.Violation,
                  String.concat "; "
                    (List.map (fun f -> Format.asprintf "%a" Ftc_chaos.Oracle.pp f) fs) ))
  in
  (* Failed trials get a chaos replay document in the quarantine record,
     so each can be re-executed in isolation. *)
  let replay_doc seed = Some (Ftc_chaos.Replay.to_string (mk_case seed)) in
  run_supervised config ~spec_hash ~replay_doc ~run_trial ~seed ~trials ()

(* -- expt command -- *)

let expt ids full seed queue_cap queue_model engine jobs journal resume =
  let queue = parse_queue ~cap:queue_cap ~model:queue_model in
  let jobs = parse_jobs jobs in
  let fast_engine = engine = `Fast in
  let all_ids = Ftc_expt.Registry.ids () in
  let ids = match ids with [] -> all_ids | ids -> List.map String.uppercase_ascii ids in
  let bad = List.filter (fun id -> Ftc_expt.Registry.find id = None) ids in
  if bad <> [] then begin
    Printf.eprintf "unknown experiments: %s (known: %s)\n" (String.concat " " bad)
      (String.concat " " all_ids);
    1
  end
  else begin
    let scale = if full then Ftc_expt.Def.Full else Ftc_expt.Def.Quick in
    (* The shared journal's spec hash covers everything the per-trial
       records depend on besides their own key: scale and base seed. The
       experiment selection is deliberately excluded — records are keyed
       per experiment, so a resumed run may cover a different subset. *)
    (* The queue and engine lines are appended only when the override is
       set, so journals of default runs keep their historical hash. The
       engine matters to the journal because --engine fast adds sweep
       points (F1/F2's extended decades) that do not exist in classic
       journals. *)
    let spec_hash =
      spec_hash_of
        ([ "expt"; (if full then "scale=full" else "scale=quick"); Printf.sprintf "seed=%d" seed ]
        @ (match queue with None -> [] | Some _ -> [ queue_hash_line queue ])
        @ if fast_engine then [ "engine=fast" ] else [])
    in
    let journal =
      match (journal, resume) with
      | Some _, Some _ ->
          prerr_endline "--journal and --resume are mutually exclusive";
          exit 2
      | None, None -> None
      | Some path, None -> Some (Supervise.open_shared ~path ~resume:false ~spec_hash)
      | None, Some path -> (
          try Some (Supervise.open_shared ~path ~resume:true ~spec_hash)
          with Supervise.Resume_error msg ->
            Printf.eprintf "cannot resume: %s\n" msg;
            exit 2)
    in
    let ctx = { Ftc_expt.Def.scale; base_seed = seed; jobs; journal; queue; fast_engine } in
    Fun.protect
      ~finally:(fun () -> Option.iter Supervise.close_shared journal)
      (fun () ->
        List.iter
          (fun id ->
            match Ftc_expt.Registry.find id with
            | Some e -> print_string (e.Ftc_expt.Def.run ctx)
            | None -> ())
          ids);
    0
  end

(* -- clouds command -- *)

let clouds n alpha seed adversary_name scale_factor =
  parse_model ~n ~alpha;
  match adversary_of_name adversary_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok adversary ->
      let starved =
        {
          params with
          Ftc_core.Params.candidate_coeff = params.Ftc_core.Params.candidate_coeff *. scale_factor;
          referee_coeff = params.Ftc_core.Params.referee_coeff *. scale_factor;
        }
      in
      let o =
        Ftc_expt.Runner.run_exn
          {
            (Ftc_expt.Runner.default_spec (Ftc_core.Agreement.make starved) ~n ~alpha) with
            Ftc_expt.Runner.inputs = Random_bits 0.5;
            adversary;
            record_trace = true;
          }
          ~seed
      in
      (match o.result.trace with
      | None -> prerr_endline "no trace recorded"
      | Some trace ->
          let infl = Ftc_analysis.Influence.of_trace ~n trace in
          let decided =
            Array.map
              (fun d -> match d with Ftc_sim.Decision.Agreed _ -> true | _ -> false)
              o.result.decisions
          in
          let deciding = Ftc_analysis.Influence.deciding_clouds infl ~decided in
          Printf.printf "initiators: %d   influence clouds: %d   deciding clouds: %d\n"
            (List.length infl.initiators) (List.length infl.clouds) (List.length deciding);
          Printf.printf "pairwise-disjoint clouds: %d   disjoint deciding clouds: %d\n"
            (Ftc_analysis.Influence.disjoint_cloud_count infl)
            (Ftc_analysis.Influence.disjoint_cloud_count
               { infl with Ftc_analysis.Influence.clouds = deciding });
          List.iteri
            (fun i c ->
              if i < 10 then
                Printf.printf "  cloud %d: initiator %d, %d members\n" i
                  c.Ftc_analysis.Influence.initiator
                  (List.length c.Ftc_analysis.Influence.members))
            infl.clouds;
          report_metrics o.result;
          let rep = Ftc_core.Properties.check_implicit_agreement ~inputs:o.inputs_used o.result in
          Printf.printf "agreement: %s\n" (if rep.ok then "ok" else "FAILED"));
      0

(* -- chaos command -- *)

let print_findings findings =
  List.iter (fun f -> Printf.printf "  %s\n" (Format.asprintf "%a" Ftc_chaos.Oracle.pp f)) findings

let chaos budget seed n_min n_max protocols omission queue_cap queue_model out jobs engine =
  reject_engine ~cmd:"chaos" engine;
  let queue = parse_queue ~cap:queue_cap ~model:queue_model in
  let jobs = parse_jobs jobs in
  if budget < 0 then begin
    Printf.eprintf "chaos: --budget must be non-negative (got %d)\n" budget;
    exit 2
  end;
  if n_min < 2 || n_max < n_min then begin
    Printf.eprintf "chaos: need 2 <= --n-min <= --n-max (got %d, %d)\n" n_min n_max;
    exit 2
  end;
  let protocols = match protocols with [] -> None | ps -> Some ps in
  (* Only [Catalog.all] is fuzzable; [Catalog.extras] entries (e.g. the
     deliberately faulty probe) are replay/sweep-only, so naming one here
     is a usage error, not a silent no-op. *)
  let fuzzable = List.map (fun (e : Ftc_chaos.Catalog.entry) -> e.name) Ftc_chaos.Catalog.all in
  (match protocols with
  | None -> ()
  | Some ps ->
      List.iter
        (fun p ->
          if not (List.mem p fuzzable) then begin
            Printf.eprintf "chaos: %s is not fuzzable (fuzzable: %s)\n" p
              (String.concat ", " fuzzable);
            exit 2
          end)
        ps);
  let config = { Ftc_chaos.Fuzz.budget; seed; protocols; n_min; n_max; omission; queue } in
  let report = Ftc_chaos.Fuzz.run ~log:print_endline ~jobs config in
  match report.Ftc_chaos.Fuzz.failure with
  | None ->
      Printf.printf "chaos: %d cases clean (seed %d)\n" report.Ftc_chaos.Fuzz.cases_run seed;
      0
  | Some f ->
      Printf.printf "chaos: VIOLATION after %d cases\n" report.Ftc_chaos.Fuzz.cases_run;
      Printf.printf "original: %s\n" (Format.asprintf "%a" Ftc_chaos.Case.pp f.case);
      print_findings f.findings;
      Printf.printf "shrunk (%d re-runs): %s\n" f.shrink_attempts
        (Format.asprintf "%a" Ftc_chaos.Case.pp f.shrunk);
      print_findings f.shrunk_findings;
      let expect =
        List.sort_uniq compare
          (List.map (fun g -> g.Ftc_chaos.Oracle.oracle) f.shrunk_findings)
      in
      Ftc_chaos.Replay.save ~expect out f.shrunk;
      Printf.printf "reproducer written to %s — run `ftc replay %s`\n" out out;
      1

(* -- verify command -- *)

(* Stdout here is part of the resume contract: everything printed is
   derived from the report (which a resumed run reconstructs exactly),
   never from live progress, so `--resume` output is byte-identical to
   an uninterrupted run. Progress and resume notes go to stderr. *)
let verify protocols n alpha horizon keep_prefix_max grid seeds_per_state seed jobs max_states
    keep_going no_reduction no_problem_oracles journal resume out telemetry engine =
  reject_engine ~cmd:"verify" engine;
  let jobs = parse_jobs jobs in
  let protocols =
    match protocols with [] -> [ "ft-leader-election"; "ft-agreement" ] | ps -> ps
  in
  let journal, resume =
    match (journal, resume) with
    | Some _, Some _ ->
        prerr_endline "--journal and --resume are mutually exclusive";
        exit 2
    | None, Some path -> (Some path, true)
    | j, None -> (j, false)
  in
  if journal <> None && List.length protocols > 1 then begin
    prerr_endline "verify: --journal/--resume need a single --protocol (one journal per space)";
    exit 2
  end;
  with_telemetry telemetry @@ fun recorder _flight ->
  let codes =
    List.map
      (fun protocol ->
        let cfg =
          {
            (Ftc_verify.Verify.default_config ~protocol) with
            n;
            alpha;
            horizon;
            keep_prefix_max;
            grid;
            seeds_per_state;
            base_seed = seed;
            reduction = not no_reduction;
            problem_oracles = not no_problem_oracles;
            max_states;
            keep_going;
            jobs;
          }
        in
        match Ftc_verify.Verify.run ~recorder ?journal ~resume ~log:prerr_endline cfg with
        | Error e ->
            Printf.eprintf "verify: %s\n" e;
            exit 2
        | Ok report ->
            print_endline (Ftc_verify.Verify.summary report);
            List.iter
              (fun (v : Ftc_verify.Verify.violation) ->
                Printf.printf "violation at state %d (seed index %d):\n  %s\n" v.index
                  v.seed_index v.state;
                List.iter (fun d -> Printf.printf "  %s\n" d) v.details)
              report.Ftc_verify.Verify.violations;
            (match report.Ftc_verify.Verify.violations with
            | [] -> ()
            | first :: _ ->
                let path =
                  match out with
                  | Some p -> p
                  | None -> Printf.sprintf "verify-%s.ftc" protocol
                in
                Ftc_chaos.Replay.save ~expect:first.oracles path first.case;
                Printf.printf "counterexample written to %s — run `ftc replay %s`\n" path
                  path);
            Ftc_verify.Verify.exit_code report)
      protocols
  in
  if List.mem 1 codes then 1 else if List.mem 3 codes then 3 else 0

let verify_cmd =
  let doc =
    "Exhaustively enumerate every adversary schedule at small n — faulty sets, per-node \
     crash rounds, final-round partial-delivery rules, optionally the chaos loss/queue grid \
     — against the safety oracles, with symmetry reduction over the anonymous nodes. BFS \
     order makes the first counterexample minimal by construction; it is written as a \
     replay file for $(b,ftc replay). Exits 0 on an exhaustive clean sweep, 1 on a \
     violation, 3 on a clean but capped sweep, 2 on usage or resume errors."
  in
  let protocols =
    Arg.(
      value
      & opt_all string []
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:
            "Verify this catalog protocol (repeatable; default ft-leader-election and \
             ft-agreement).")
  in
  let n =
    Arg.(
      value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Network size; the space is exhaustive \
                                                      only for small N (at most 8).")
  in
  let alpha =
    Arg.(
      value
      & opt float 0.5
      & info [ "a"; "alpha" ] ~docv:"ALPHA"
          ~doc:"Guaranteed non-faulty fraction; the crash budget is $(b,N - ceil(ALPHA N)).")
  in
  let horizon =
    Arg.(
      value
      & opt int 0
      & info [ "horizon" ] ~docv:"R"
          ~doc:
            "Crash rounds range over [0, $(docv)); 0 means the protocol's full round \
             calendar.")
  in
  let keep_prefix_max =
    Arg.(
      value
      & opt int 2
      & info [ "keep-prefix-max" ] ~docv:"K"
          ~doc:
            "Partial final-round delivery: besides drop-none and drop-all, try keep-prefix \
             1..$(docv).")
  in
  let grid =
    Arg.(
      value
      & flag
      & info [ "grid" ]
          ~doc:
            "Also sweep the chaos catalog's fixed loss/queue grid points (ECN and drop-tail \
             queues, heavy raw loss, light loss under the transport). Droppy raw points are \
             judged by the accounting oracles only, as in the fuzzer.")
  in
  let seeds_per_state =
    Arg.(
      value
      & opt int 1
      & info [ "seeds-per-state" ] ~docv:"S"
          ~doc:"Coin assignments tried per canonical schedule.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"M"
          ~doc:"Stop after $(docv) states; a clean capped sweep exits 3, not 0.")
  in
  let keep_going =
    Arg.(
      value
      & flag
      & info [ "keep-going" ]
          ~doc:"Collect every violation instead of stopping at the first (minimal) one.")
  in
  let no_reduction =
    Arg.(
      value
      & flag
      & info [ "no-reduction" ]
          ~doc:
            "Enumerate raw labelled schedules instead of canonical forms (the reference \
             mode the symmetry-soundness tests compare against).")
  in
  let no_problem_oracles =
    Arg.(
      value
      & flag
      & info [ "no-problem-oracles" ]
          ~doc:
            "Check only the accounting oracles (model, congest, termination, \
             trace-metrics): the w.h.p. election/agreement properties are expected to have \
             failing schedules at small n, and this flag verifies everything else \
             exhaustively despite them.")
  in
  let verify_journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead exploration journal: one record per completed state chunk, flushed \
             as it finishes, so a killed run can be resumed with $(b,--resume) $(docv).")
  in
  let verify_resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume the journal of an interrupted run of the $(i,same) verification: \
             journaled chunks are restored without re-running, the rest are explored and \
             appended. Stdout is byte-identical to an uninterrupted run. A journal of a \
             different configuration is rejected (exit 2).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Where to write the first counterexample's replay file (default \
             verify-$(i,protocol).ftc).")
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const verify $ protocols $ n $ alpha $ horizon $ keep_prefix_max $ grid
      $ seeds_per_state $ seed_arg $ jobs_arg $ max_states $ keep_going $ no_reduction
      $ no_problem_oracles $ verify_journal $ verify_resume $ out $ telemetry_arg
      $ reject_engine_arg)

(* -- replay command -- *)

(* Re-execute every quarantined trial of a supervised sweep. Entries
   without an embedded replay document (e.g. exceptions) are only
   listed. Exit 1 when any entry still fails, 0 when all are clean,
   2 on a malformed quarantine file. *)
let replay_quarantine path =
  let read_lines () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  match read_lines () with
  | exception Sys_error e ->
      Printf.eprintf "replay: %s\n" e;
      2
  | lines ->
      let malformed = ref false and reproduced = ref 0 in
      List.iteri
        (fun i line ->
          if String.trim line <> "" then begin
            match Json.of_string line with
            | Error e ->
                Printf.eprintf "replay: %s:%d: %s\n" path (i + 1) e;
                malformed := true
            | Ok j -> (
                match
                  ( Option.bind (Json.member "seed" j) Json.to_int,
                    Option.bind (Json.member "class" j) Json.to_str,
                    Option.bind (Json.member "detail" j) Json.to_str )
                with
                | Some seed, Some class_, Some detail -> (
                    Printf.printf "seed %d [%s]: %s\n" seed class_ detail;
                    match Option.bind (Json.member "replay" j) Json.to_str with
                    | None -> print_endline "  (no replay document; not re-run)"
                    | Some doc -> (
                        match Ftc_chaos.Replay.of_string doc with
                        | Error e ->
                            Printf.eprintf "replay: %s:%d: bad replay document: %s\n" path (i + 1)
                              e;
                            malformed := true
                        | Ok (case, _expect) -> (
                            match Ftc_chaos.Case.run case with
                            | Error e ->
                                Printf.eprintf "replay: %s:%d: %s\n" path (i + 1)
                                  (Ftc_chaos.Case.error_to_string e);
                                malformed := true
                            | Ok (_result, []) -> print_endline "  re-run: clean"
                            | Ok (_result, findings) ->
                                incr reproduced;
                                print_endline "  re-run: still failing";
                                print_findings findings)))
                | _ ->
                    Printf.eprintf "replay: %s:%d: not a quarantine record\n" path (i + 1);
                    malformed := true)
          end)
        lines;
      if !malformed then 2 else if !reproduced > 0 then 1 else 0

let replay_file path =
  match Ftc_chaos.Replay.load path with
  | Error e ->
      Printf.eprintf "replay: %s\n" e;
      2
  | Ok (case, expect) -> (
      Printf.printf "replaying: %s\n" (Format.asprintf "%a" Ftc_chaos.Case.pp case);
      match Ftc_chaos.Case.run case with
      | Error e ->
          Printf.eprintf "replay: %s\n" (Ftc_chaos.Case.error_to_string e);
          2
      | Ok (result, findings) ->
          report_metrics result;
          if findings = [] then print_endline "no oracle findings"
          else begin
            print_endline "findings:";
            print_findings findings
          end;
          if expect = [] then if findings = [] then 0 else 1
          else begin
            let reproduced =
              List.for_all
                (fun o -> List.exists (fun f -> f.Ftc_chaos.Oracle.oracle = o) findings)
                expect
            in
            if reproduced then begin
              Printf.printf "reproduced expected violation(s): %s\n" (String.concat ", " expect);
              1
            end
            else begin
              Printf.printf "expected violation(s) [%s] did NOT reproduce\n"
                (String.concat ", " expect);
              0
            end
          end)

let replay file quarantine =
  match (file, quarantine) with
  | Some path, None -> replay_file path
  | None, Some path -> replay_quarantine path
  | Some _, Some _ ->
      prerr_endline "replay: give either a reproducer FILE or --quarantine, not both";
      2
  | None, None ->
      prerr_endline "replay: need a reproducer FILE or --quarantine FILE";
      2

(* -- trace command -- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Validate one exported artifact; missing or malformed files fail the
   command, which is what lets CI gate on `ftc trace summary`. *)
let trace_check ~dir ~bad name validate what =
  let path = Filename.concat dir name in
  match read_file path with
  | exception Sys_error e ->
      Printf.printf "%s: MISSING (%s)\n" name e;
      bad := true
  | body -> (
      match validate body with
      | Ok n -> Printf.printf "%s: valid (%d %s)\n" name n what
      | Error e ->
          Printf.printf "%s: INVALID (%s)\n" name e;
          bad := true)

let trace_summary dir =
  match Ftc_telemetry.Export.load_dir ~dir with
  | Error e ->
      Printf.eprintf "trace: %s\n" e;
      2
  | Ok (metrics, events) ->
      print_string (Ftc_telemetry.Export.summary ~metrics ~events);
      let bad = ref false in
      trace_check ~dir ~bad Ftc_telemetry.Export.trace_file
        Ftc_telemetry.Export.validate_trace_json "events";
      trace_check ~dir ~bad Ftc_telemetry.Export.prom_file
        Ftc_telemetry.Export.validate_prometheus "samples";
      if !bad then 1 else 0

let trace_export dir =
  match Ftc_telemetry.Export.load_dir ~dir with
  | Error e ->
      Printf.eprintf "trace: %s\n" e;
      2
  | Ok (metrics, events) ->
      Ftc_telemetry.Export.export_files ~dir ~metrics ~events;
      Printf.printf "regenerated %s/{%s,%s} from %s\n" dir Ftc_telemetry.Export.trace_file
        Ftc_telemetry.Export.prom_file Ftc_telemetry.Export.events_file;
      0

(* -- serve / client commands -- *)

let serve_addr ~socket ~tcp ~default =
  match (socket, tcp) with
  | Some _, Some _ ->
      prerr_endline "--socket and --tcp are mutually exclusive";
      exit 2
  | Some path, None -> Ftc_serve.Server.Unix_sock path
  | None, Some port ->
      if port < 1 || port > 65535 then begin
        Printf.eprintf "--tcp port must be in [1, 65535] (got %d)\n" port;
        exit 2
      end;
      Ftc_serve.Server.Tcp port
  | None, None -> Ftc_serve.Server.Unix_sock default

let parse_inject ~inject ~inject_seed =
  match Ftc_serve.Inject.parse inject with
  | Ok i -> Ftc_serve.Inject.with_seed i inject_seed
  | Error e ->
      Printf.eprintf "--inject: %s (presets: %s)\n" e
        (String.concat ", " (List.map fst Ftc_serve.Inject.catalog));
      exit 2

let serve socket tcp workers bound timeout_ms grace_ms inject inject_seed telemetry blackbox
    flight_capacity =
  let addr = serve_addr ~socket ~tcp ~default:"ftc-serve.sock" in
  let inject = parse_inject ~inject ~inject_seed in
  if workers < 1 then begin
    Printf.eprintf "--workers must be at least 1 (got %d)\n" workers;
    exit 2
  end;
  if bound < 1 then begin
    Printf.eprintf "--bound must be at least 1 (got %d)\n" bound;
    exit 2
  end;
  if timeout_ms < 1 || grace_ms < 1 then begin
    prerr_endline "--timeout-ms and --grace-ms must be positive";
    exit 2
  end;
  if flight_capacity < 1 then begin
    Printf.eprintf "--flight-capacity must be at least 1 (got %d)\n" flight_capacity;
    exit 2
  end;
  with_telemetry ~flight_capacity telemetry @@ fun recorder tflight ->
  (* One ring serves both planes: --telemetry gets it dumped into the
     telemetry dir at exit, --blackbox gets it dumped on every trigger. *)
  let flight =
    if Ftc_telemetry.Flight.enabled tflight then tflight
    else if blackbox <> None then Ftc_telemetry.Flight.create ~capacity:flight_capacity
    else Ftc_telemetry.Flight.disabled
  in
  let drain = Atomic.make false in
  let dump_signal = Atomic.make false in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set drain true))
      with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  (try Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> Atomic.set dump_signal true))
   with Invalid_argument _ -> ());
  let cfg =
    {
      (Ftc_serve.Server.default_config addr) with
      Ftc_serve.Server.workers;
      bound;
      default_timeout_ms = timeout_ms;
      grace_ms;
      inject;
      recorder;
      flight;
      blackbox;
      log = (fun line -> Printf.eprintf "%s\n%!" line);
    }
  in
  match Ftc_serve.Server.run ~drain ~dump_signal cfg with
  | Error e ->
      Printf.eprintf "serve: %s\n" e;
      1
  | Ok s ->
      print_endline (Ftc_serve.Server.summary_line s);
      Ftc_serve.Server.exit_code s

let top socket tcp interval_ms iterations raw json =
  let addr = serve_addr ~socket ~tcp ~default:"ftc-serve.sock" in
  if interval_ms < 1 then begin
    Printf.eprintf "--interval-ms must be positive (got %d)\n" interval_ms;
    exit 2
  end;
  if iterations < 0 then begin
    Printf.eprintf "--iterations must be non-negative (got %d)\n" iterations;
    exit 2
  end;
  let mode =
    if json then Ftc_serve.Top.Json
    else if raw || not (Unix.isatty Unix.stdout) then Ftc_serve.Top.Raw
    else Ftc_serve.Top.Ansi
  in
  let stop = Atomic.make false in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set stop true))
   with Invalid_argument _ -> ());
  let cfg =
    { (Ftc_serve.Top.default_config addr) with Ftc_serve.Top.interval_ms; iterations; mode }
  in
  match Ftc_serve.Top.run ~stop cfg with
  | Ok _ -> 0
  | Error e ->
      Printf.eprintf "top: %s\n" e;
      1

(* -- blackbox command -- *)

let load_blackbox file =
  match Ftc_telemetry.Flight.load ~path:file with
  | Ok d -> d
  | Error e ->
      Printf.eprintf "blackbox: %s: %s\n" file e;
      exit 1

let blackbox_validate file =
  let d = load_blackbox file in
  match Ftc_telemetry.Flight.check d with
  | Ok () ->
      Printf.printf "blackbox ok: version=%d reason=%s capacity=%d recorded=%d dropped=%d entries=%d\n"
        d.Ftc_telemetry.Flight.version d.reason d.capacity_ d.recorded d.dropped_
        (List.length d.entries);
      0
  | Error e ->
      Printf.printf "blackbox INVALID: %s\n" e;
      1

let blackbox_summary file =
  let d = load_blackbox file in
  let open Ftc_telemetry.Flight in
  Printf.printf "black box %s: reason=%s recorded=%d dropped=%d window=%d\n" file d.reason
    d.recorded d.dropped_ (List.length d.entries);
  let kinds = Hashtbl.create 16 in
  let tickets = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = ev_kind e.ev in
      Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
      match ticket_of e.ev with
      | Some t -> Hashtbl.replace tickets t ()
      | None -> ())
    d.entries;
  Printf.printf "events by kind:\n";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
  |> List.sort compare
  |> List.iter (fun (k, v) -> Printf.printf "  %-18s %d\n" k v);
  Printf.printf "tickets in window: %d\n" (Hashtbl.length tickets);
  let requeued =
    List.filter_map
      (fun e -> match e.ev with Requeued { ticket; _ } -> Some ticket | _ -> None)
      d.entries
    |> List.sort_uniq compare
  in
  if requeued <> [] then
    Printf.printf "requeued tickets: %s\n"
      (String.concat " " (List.map string_of_int requeued));
  0

let blackbox_timeline file ticket =
  let d = load_blackbox file in
  let open Ftc_telemetry.Flight in
  match timeline d.entries ~ticket with
  | [] ->
      Printf.printf "ticket %d: no events in the surviving window (dropped=%d)\n" ticket
        d.dropped_;
      1
  | tl ->
      Printf.printf "ticket %d: %d events\n" ticket (List.length tl);
      List.iter
        (fun e ->
          Printf.printf "  [%6d] %8.1f ms  %s\n" e.seq
            (Int64.to_float e.at_ns /. 1e6)
            (pp_ev e.ev))
        tl;
      0

let client socket tcp total rate protocol n alpha adversary seed timeout_ms retries =
  let addr = serve_addr ~socket ~tcp ~default:"ftc-serve.sock" in
  if total < 1 then begin
    Printf.eprintf "--total must be at least 1 (got %d)\n" total;
    exit 2
  end;
  if retries < 0 then begin
    Printf.eprintf "--retries must be non-negative (got %d)\n" retries;
    exit 2
  end;
  let cfg =
    {
      (Ftc_serve.Client.default_config addr) with
      Ftc_serve.Client.total;
      rate;
      protocol;
      n;
      alpha;
      adversary;
      base_seed = seed;
      timeout_ms;
      retries;
      log = (fun line -> Printf.eprintf "%s\n%!" line);
    }
  in
  match Ftc_serve.Client.run cfg with
  | Error e ->
      Printf.eprintf "client: %s\n" e;
      1
  | Ok stats ->
      print_endline (Ftc_serve.Client.stats_line stats);
      Ftc_serve.Client.exit_code stats

(* -- list command -- *)

let list_all () =
  print_endline "Experiments (see DESIGN.md):";
  List.iter
    (fun (e : Ftc_expt.Def.t) -> Printf.printf "  %-4s %s\n" e.id e.title)
    Ftc_expt.Registry.all;
  print_endline "\nAdversaries:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) (Ftc_fault.Strategy.all ());
  print_endline "\nProtocols (chaos catalog; * = fuzzed with crash plans):";
  List.iter
    (fun (e : Ftc_chaos.Catalog.entry) ->
      Printf.printf "  %s%s\n" e.name (if e.crash_tolerant then " *" else ""))
    Ftc_chaos.Catalog.all;
  List.iter
    (fun (e : Ftc_chaos.Catalog.entry) -> Printf.printf "  %s (sweep/replay only)\n" e.name)
    Ftc_chaos.Catalog.extras;
  0

(* -- command wiring -- *)

let election_cmd =
  let doc = "Run fault-tolerant implicit leader election (paper Sec. IV-A)." in
  Cmd.v
    (Cmd.info "election" ~doc)
    Term.(
      const election $ n_arg $ alpha_arg $ seed_arg $ adversary_arg $ explicit_arg $ trials_arg
      $ loss_arg $ loss_model_arg $ queue_cap_arg $ queue_model_arg $ transport_arg $ engine_arg
      $ jobs_arg $ keep_going_arg $ journal_arg $ resume_arg $ quarantine_arg $ trial_timeout_arg
      $ telemetry_arg)

let agreement_cmd =
  let doc = "Run fault-tolerant implicit agreement (paper Sec. V-A)." in
  let ones =
    Arg.(
      value
      & opt float 0.5
      & info [ "ones-prob" ] ~docv:"P" ~doc:"Probability that a node's input bit is 1.")
  in
  Cmd.v
    (Cmd.info "agreement" ~doc)
    Term.(
      const agreement $ n_arg $ alpha_arg $ seed_arg $ adversary_arg $ explicit_arg $ ones
      $ trials_arg $ loss_arg $ loss_model_arg $ queue_cap_arg $ queue_model_arg $ transport_arg
      $ engine_arg $ jobs_arg $ keep_going_arg $ journal_arg $ resume_arg $ quarantine_arg
      $ trial_timeout_arg $ telemetry_arg)

let sweep_cmd =
  let doc =
    "Run a seeded trial sweep of any catalog protocol under the crash-safe supervisor: \
     journaled completions ($(b,--journal)), resume of a killed run ($(b,--resume)), per-trial \
     watchdog ($(b,--trial-timeout)), and quarantine of failed trials replayable with \
     $(b,ftc replay --quarantine)."
  in
  let protocol =
    Arg.(
      value
      & opt string "ft-leader-election"
      & info [ "protocol" ] ~docv:"NAME" ~doc:"A chaos-catalog protocol name (see $(b,ftc list)).")
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const sweep $ protocol $ n_arg $ alpha_arg $ seed_arg $ adversary_arg $ trials_arg
      $ loss_arg $ loss_model_arg $ queue_cap_arg $ queue_model_arg $ transport_arg $ jobs_arg
      $ keep_going_arg $ journal_arg $ resume_arg $ quarantine_arg $ trial_timeout_arg
      $ telemetry_arg $ reject_engine_arg)

let expt_cmd =
  let doc = "Run experiments by id (default: all, quick scale)." in
  let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID") in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"EXPERIMENTS.md scale.") in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal every completed trial of every experiment to $(docv), so a killed run can \
             be resumed with $(b,--resume) $(docv).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from the journal of an interrupted run with the same scale and seed: \
             journaled trials are skipped, reports are identical to an uninterrupted run.")
  in
  Cmd.v (Cmd.info "expt" ~doc)
    Term.(
      const expt $ ids $ full $ seed_arg $ queue_cap_arg $ queue_model_arg $ engine_arg
      $ jobs_arg $ journal $ resume)

let clouds_cmd =
  let doc = "Trace a run and print its influence-cloud decomposition (Thm 4.2/5.2)." in
  let scale =
    Arg.(
      value
      & opt float 1.0
      & info [ "starve" ] ~docv:"S"
          ~doc:"Scale both sampling constants by $(docv) to starve the protocol of messages.")
  in
  Cmd.v
    (Cmd.info "clouds" ~doc)
    Term.(const clouds $ n_arg $ alpha_arg $ seed_arg $ adversary_arg $ scale)

let chaos_cmd =
  let doc =
    "Fuzz crash adversaries across every registered protocol, checking all safety oracles. \
     Exits 1 with a shrunk replay file on any violation, 0 when every case is clean."
  in
  let budget =
    Arg.(value & opt int 100 & info [ "budget" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let n_min = Arg.(value & opt int 32 & info [ "n-min" ] ~docv:"N" ~doc:"Smallest network.") in
  let n_max = Arg.(value & opt int 96 & info [ "n-max" ] ~docv:"N" ~doc:"Largest network.") in
  let protocols =
    Arg.(
      value
      & opt_all string []
      & info [ "protocol" ] ~docv:"NAME" ~doc:"Restrict to this protocol (repeatable).")
  in
  let omission =
    Arg.(
      value
      & flag
      & info [ "omission" ]
          ~doc:"Also fuzz link-loss models: raw protocols under heavy loss (accounting oracles \
                only) and transport-wrapped protocols under light loss (every oracle).")
  in
  let out =
    Arg.(
      value
      & opt string "chaos-repro.ftc"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the shrunk reproducer.")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos $ budget $ seed_arg $ n_min $ n_max $ protocols $ omission $ queue_cap_arg
      $ queue_model_arg $ out $ jobs_arg $ reject_engine_arg)

let replay_cmd =
  let doc =
    "Deterministically re-execute a chaos reproducer file. Exits 1 when the recorded \
     violation (still) reproduces, 0 when the run is clean or the expectation no longer \
     fails, 2 on a malformed file."
  in
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE") in
  let quarantine =
    Arg.(
      value
      & opt (some file) None
      & info [ "quarantine" ] ~docv:"FILE"
          ~doc:
            "Re-execute every entry of a sweep quarantine file (as written by the supervised \
             commands) instead of a single reproducer.")
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const replay $ file $ quarantine)

let trace_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"A directory written by $(b,--telemetry).")
  in
  let summary_cmd =
    let doc =
      "Print the per-(protocol, phase) cost table — spans, rounds, messages, bits, wall-clock \
       — with trial totals and histogram digests, then validate trace.json and metrics.prom. \
       Exits 1 when an artifact is missing or malformed, 2 when events.jsonl is unreadable."
    in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const trace_summary $ dir_arg)
  in
  let export_cmd =
    let doc =
      "Regenerate trace.json (Chrome trace-event JSON) and metrics.prom from events.jsonl, \
       the source-of-truth event stream."
    in
    Cmd.v (Cmd.info "export" ~doc) Term.(const trace_export $ dir_arg)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Summarise or regenerate a $(b,--telemetry) output directory.")
    [ summary_cmd; export_cmd ]

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default ftc-serve.sock). Mutually exclusive with \
              $(b,--tcp).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on (or connect to) 127.0.0.1:$(docv) instead of \
                                        a Unix socket.")

let serve_cmd =
  let doc =
    "Run the election/agreement service: a long-running server multiplexing concurrent \
     protocol instances over supervised worker domains, with bounded admission (overload is \
     shed with a retry-after hint, memory never grows past $(b,--bound) open instances), \
     per-instance watchdog deadlines, worker crash-restart with requeue, live fault \
     injection ($(b,--inject)), and graceful drain on SIGTERM (stop admission, finish \
     in-flight instances, exit 0). Every accepted request receives exactly one terminal \
     reply; the final summary line reports $(b,lost=0) when that held."
  in
  let workers =
    Arg.(
      value
      & opt int 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains executing instances.")
  in
  let bound =
    Arg.(
      value
      & opt int 256
      & info [ "bound" ] ~docv:"B"
          ~doc:"Admission bound: maximum open (queued + in-flight) instances; beyond it \
                submits are shed.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt int 10_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Default per-instance watchdog deadline (a submit may override it downward or \
                upward with its own timeout_ms field).")
  in
  let grace_ms =
    Arg.(
      value
      & opt int 30_000
      & info [ "grace-ms" ] ~docv:"MS"
          ~doc:"Drain grace: how long to wait for in-flight instances after SIGTERM before \
                giving up on the worker join.")
  in
  let inject =
    Arg.(
      value
      & opt string "none"
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:
            "Service-layer fault injection: $(b,none), a preset (worker-kill, instance-kill, \
             frame-chaos, conn-chaos, mayhem) or an explicit kind:rate list, e.g. \
             $(b,kill-worker:0.1,delay-frame:0.05). Kinds: kill-instance, kill-worker, \
             delay-frame, truncate-frame, drop-conn. Deterministic given \
             $(b,--inject-seed).")
  in
  let inject_seed =
    Arg.(
      value
      & opt int 0
      & info [ "inject-seed" ] ~docv:"SEED" ~doc:"Seed for the injection decision stream.")
  in
  let blackbox =
    Arg.(
      value
      & opt (some string) None
      & info [ "blackbox" ] ~docv:"FILE"
          ~doc:
            "Enable the flight recorder and dump its ring to $(docv) (versioned JSONL) on \
             watchdog fire, worker crash, SIGQUIT, and at drain (reason $(b,ledger-residue) \
             when replies were lost, $(b,clean-drain) otherwise). Inspect with \
             $(b,ftc blackbox).")
  in
  let flight_capacity =
    Arg.(
      value
      & opt int 4096
      & info [ "flight-capacity" ] ~docv:"K"
          ~doc:
            "Flight-recorder ring capacity in events: memory is preallocated and bounded; \
             under sustained load the oldest events are overwritten (the dump header counts \
             them as $(b,dropped)).")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ tcp_arg $ workers $ bound $ timeout_ms $ grace_ms $ inject
      $ inject_seed $ telemetry_arg $ blackbox $ flight_capacity)

let top_cmd =
  let doc =
    "Terminal dashboard over a running $(b,ftc serve): polls $(b,Ping) + $(b,Introspect) at \
     an interval and renders per-worker state (busy/idle, current ticket and round, respawn \
     count), queue depth with a sparkline history, terminal-reply throughput, latency \
     quantiles (p50/p90/p99), and per-kind injection counts. A shrinking server uptime \
     (mid-session restart) is detected and marked in the display."
  in
  let interval_ms =
    Arg.(
      value
      & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Polling interval between samples.")
  in
  let iterations =
    Arg.(
      value
      & opt int 0
      & info [ "iterations"; "n" ] ~docv:"N"
          ~doc:"Stop after $(docv) samples; 0 = run until interrupted.")
  in
  let raw =
    Arg.(
      value
      & flag
      & info [ "raw" ]
          ~doc:"Append frames instead of redrawing the terminal (default when stdout is not \
                a tty).")
  in
  let json =
    Arg.(
      value
      & flag
      & info [ "json" ]
          ~doc:"Print one line of raw $(b,Introspect) reply JSON per sample — the stable \
                machine surface (CI diffs its schema).")
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top $ socket_arg $ tcp_arg $ interval_ms $ iterations $ raw $ json)

let blackbox_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A black-box JSONL file dumped by $(b,ftc serve --blackbox) \
                                   or a $(b,--telemetry) run.")
  in
  let validate_cmd =
    let doc =
      "Validate a black box: version, header bookkeeping, and sequence-number contiguity \
       (exactly the events between $(b,dropped) and $(b,recorded), in order, none torn). \
       Exits 0 when sound, 1 otherwise."
    in
    Cmd.v (Cmd.info "validate" ~doc) Term.(const blackbox_validate $ file_arg)
  in
  let summary_cmd =
    let doc =
      "Event-kind histogram, distinct tickets in the surviving window, and the tickets that \
       were requeued after worker crashes."
    in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const blackbox_summary $ file_arg)
  in
  let timeline_cmd =
    let doc =
      "Reconstruct the causal timeline of one ticket: admission, every attempt and the \
       worker that ran it, round heartbeats, injections that hit it, requeues, and its \
       terminal class. Exits 1 when the ticket has no surviving events."
    in
    let ticket =
      Arg.(
        required
        & opt (some int) None
        & info [ "ticket" ] ~docv:"K" ~doc:"The server-assigned ticket to reconstruct.")
    in
    Cmd.v (Cmd.info "timeline" ~doc) Term.(const blackbox_timeline $ file_arg $ ticket)
  in
  Cmd.group
    (Cmd.info "blackbox"
       ~doc:"Validate, summarise, or reconstruct ticket timelines from a flight-recorder \
             black box.")
    [ validate_cmd; summary_cmd; timeline_cmd ]

let client_cmd =
  let doc =
    "Open-loop load generator for $(b,ftc serve): submit $(b,--total) instances at \
     $(b,--rate) per second, retry shed submits with bounded exponential backoff (the \
     transport's doubling ladder, floored by the server's retry-after hint), reconnect on \
     dropped connections, and report throughput and completion-latency quantiles."
  in
  let total =
    Arg.(value & opt int 100 & info [ "total" ] ~docv:"K" ~doc:"Instances to submit.")
  in
  let rate =
    Arg.(
      value
      & opt float 0.
      & info [ "rate" ] ~docv:"R"
          ~doc:"Submits per second (open-loop schedule); 0 = as fast as possible.")
  in
  let protocol =
    Arg.(
      value
      & opt string "ft-leader-election"
      & info [ "protocol" ] ~docv:"NAME" ~doc:"A chaos-catalog protocol name (see $(b,ftc list)).")
  in
  let client_n =
    Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Network size per instance.")
  in
  let client_alpha =
    Arg.(
      value
      & opt float 0.125
      & info [ "a"; "alpha" ] ~docv:"ALPHA" ~doc:"Guaranteed non-faulty fraction.")
  in
  let client_adversary =
    Arg.(
      value
      & opt string "none"
      & info [ "adversary" ] ~docv:"NAME" ~doc:"Crash adversary per instance (none = fault-free).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-instance server-side deadline override.")
  in
  let retries =
    Arg.(
      value
      & opt int 4
      & info [ "retries" ] ~docv:"K" ~doc:"Max submission attempts per instance when shed.")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const client $ socket_arg $ tcp_arg $ total $ rate $ protocol $ client_n $ client_alpha
      $ client_adversary $ seed_arg $ timeout_ms $ retries)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List experiments, protocols and adversaries.")
    Term.(const list_all $ const ())

let main =
  let doc = "fault-tolerant leader election and agreement (Kumar & Molla, PODC'21/TPDS'23)" in
  Cmd.group (Cmd.info "ftc" ~version:"1.0.0" ~doc)
    [ election_cmd; agreement_cmd; sweep_cmd; expt_cmd; clouds_cmd; chaos_cmd; verify_cmd;
      serve_cmd; client_cmd; top_cmd; blackbox_cmd; replay_cmd; trace_cmd; list_cmd ]

let () = exit (Cmd.eval' main)
