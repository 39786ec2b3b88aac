(* The benchmark harness.

   Two stages, both keyed by the experiment ids of DESIGN.md:

   1. Bechamel micro-benchmarks — one [Test.make] per table/figure,
      measuring the wall-clock cost of that experiment's representative
      workload (a single protocol run at a small n), so performance
      regressions in the simulator or protocols are visible.
   2. The experiments themselves — each prints the rows/series the paper
      artefact contains (Table I and the theorem/lemma validations).

   Usage: main.exe [T1 F1 ... | all] [--quick|--full] [--seed=N] [--jobs=N] [--no-bench]
                   [--keep-going]
   Default: every experiment, full scale (the EXPERIMENTS.md settings).
   --keep-going runs the remaining experiments when one fails, reports the
   failures on stderr, and exits 3 (partial) or 1 (nothing completed)
   instead of raising.

   Timing is monotonic-clock and goes to stderr; stdout carries only the
   experiment reports, which are bit-identical at every --jobs value —
   CI diffs a --jobs 2 run against --jobs 1 to enforce exactly that.
   Per-experiment wall times land in BENCH_perf.json. *)

(* Bind the stub clock before [open Bechamel] shadows the module name
   with bechamel's own (now-less) [Bechamel.Monotonic_clock]. *)
let monotonic_now_ns = Monotonic_clock.now

open Bechamel
open Toolkit

let params = Ftc_core.Params.default

let one_run ?(loss = Ftc_fault.Omission.No_loss) ?queue ?transport
    (module P : Ftc_sim.Protocol.S) ~n ~alpha ~inputs ~adversary seed =
  let spec =
    {
      (Ftc_expt.Runner.default_spec (module P) ~n ~alpha) with
      Ftc_expt.Runner.inputs;
      adversary;
      link = (fun () -> Ftc_fault.Omission.to_link loss);
      queue;
      transport;
    }
  in
  ignore (Ftc_expt.Runner.run spec ~seed)

let le ?(explicit = false) () = Ftc_core.Leader_election.make ~explicit params
let ag ?(explicit = false) () = Ftc_core.Agreement.make ~explicit params
let random_adv () = Ftc_fault.Strategy.random_crashes ()

(* One representative workload per experiment id. Small n: bechamel runs
   each thunk many times. *)
let workloads : (string * (unit -> unit)) list =
  [
    ( "T1",
      fun () ->
        one_run (ag ()) ~n:128 ~alpha:0.5 ~inputs:(Ftc_expt.Runner.Random_bits 0.5)
          ~adversary:random_adv 1 );
    ( "F1",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:0.7 ~inputs:Ftc_expt.Runner.Zeros ~adversary:random_adv 2
    );
    ( "F2",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:0.4 ~inputs:Ftc_expt.Runner.Zeros ~adversary:random_adv 3
    );
    ( "F3",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:1.0 ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:Ftc_fault.Strategy.none 4 );
    ( "F4",
      fun () ->
        one_run (ag ()) ~n:128 ~alpha:0.7 ~inputs:(Ftc_expt.Runner.Random_bits 0.5)
          ~adversary:random_adv 5 );
    ( "F5",
      fun () ->
        one_run (ag ()) ~n:128 ~alpha:0.4 ~inputs:(Ftc_expt.Runner.Random_bits 0.5)
          ~adversary:random_adv 6 );
    ( "F6",
      fun () ->
        let rng = Ftc_rng.Rng.create 7 in
        for _ = 1 to 100 do
          ignore (Ftc_rng.Dist.binomial rng ~n:4096 ~p:0.01)
        done );
    ( "F7",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:0.6 ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:Ftc_fault.Strategy.dormant 8 );
    ( "F8",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:0.5 ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:Ftc_fault.Strategy.eager 9 );
    ( "F9",
      fun () ->
        let starved =
          { params with Ftc_core.Params.candidate_coeff = 0.6; referee_coeff = 0.2 }
        in
        one_run (Ftc_core.Agreement.make starved) ~n:512 ~alpha:0.5
          ~inputs:(Ftc_expt.Runner.Random_bits 0.5) ~adversary:Ftc_fault.Strategy.none 10 );
    ( "F10",
      fun () ->
        one_run (le ~explicit:true ()) ~n:128 ~alpha:0.7 ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:random_adv 11 );
    ( "F11",
      fun () ->
        one_run (le ()) ~n:128 ~alpha:0.5 ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:(fun () -> Ftc_fault.Strategy.targeted_min_rank ())
          12 );
    ( "F12",
      fun () ->
        one_run (Ftc_baselines.Kutten_le.make ()) ~n:512 ~alpha:1.0
          ~inputs:Ftc_expt.Runner.Zeros ~adversary:Ftc_fault.Strategy.none 13 );
    ( "F13",
      fun () ->
        one_run
          ~loss:(Ftc_fault.Omission.Uniform 0.1)
          ~transport:Ftc_transport.Transport.default_config (le ()) ~n:64 ~alpha:1.0
          ~inputs:Ftc_expt.Runner.Zeros ~adversary:Ftc_fault.Strategy.none 18 );
    ( "F14",
      fun () ->
        one_run
          ~queue:(Ftc_sim.Queue_model.make ~capacity:8 ~discipline:Ftc_sim.Queue_model.Red ())
          ~transport:Ftc_transport.Transport.default_config (le ()) ~n:64 ~alpha:0.7
          ~inputs:Ftc_expt.Runner.Zeros ~adversary:Ftc_fault.Strategy.none 19 );
    ( "A1",
      fun () ->
        let thin = { params with Ftc_core.Params.candidate_coeff = 1.0 } in
        one_run (Ftc_core.Leader_election.make thin) ~n:128 ~alpha:0.5
          ~inputs:Ftc_expt.Runner.Zeros ~adversary:Ftc_fault.Strategy.eager 14 );
    ( "A2",
      fun () ->
        one_run (Ftc_core.Min_agreement.make params) ~n:128 ~alpha:0.6
          ~inputs:(Ftc_expt.Runner.Random_bits 0.5) ~adversary:random_adv 15 );
    ( "A3",
      fun () ->
        let eager_decide = { params with Ftc_core.Params.quiet_iterations_to_decide = 1 } in
        one_run (Ftc_core.Leader_election.make eager_decide) ~n:128 ~alpha:0.5
          ~inputs:Ftc_expt.Runner.Zeros
          ~adversary:(fun () -> Ftc_fault.Strategy.targeted_min_rank ())
          16 );
    ( "A4",
      fun () ->
        let inputs = Array.make 128 1 in
        inputs.(0) <- Ftc_core.Byzantine_probe.byzantine_input;
        one_run
          (Ftc_core.Byzantine_probe.make params)
          ~n:128 ~alpha:0.8
          ~inputs:(Ftc_expt.Runner.Exact inputs)
          ~adversary:Ftc_fault.Strategy.none 17 );
  ]

let run_microbenches ids =
  let tests =
    List.filter_map
      (fun (id, thunk) ->
        if List.mem id ids then Some (Test.make ~name:id (Staged.stage thunk)) else None)
      workloads
  in
  let grouped = Test.make_grouped ~name:"workload" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  print_endline "Micro-benchmarks (ns per representative workload run, OLS fit):";
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| "run" |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est = match Analyze.OLS.estimates ols with Some [ e ] -> e | _ -> Float.nan in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      rows := (name, est, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, est, r2) -> Printf.printf "  %-24s %12.0f ns/run   (R^2 = %.3f)\n" name est r2)
    rows;
  print_newline ();
  rows

(* Machine-readable record of the F13 (lossy transport) micro-benchmark,
   for CI trend tracking. JSON has no NaN, so unusable fits become null. *)
let emit_f13_json rows =
  match List.find_opt (fun (name, _, _) -> name = "workload F13") rows with
  | None -> ()
  | Some (_, est, r2) ->
      let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
      let oc = open_out "BENCH_f13.json" in
      Printf.fprintf oc
        "{\n\
        \  \"id\": \"F13\",\n\
        \  \"workload\": \"leader-election n=64 alpha=1.0, uniform loss 0.1, default transport\",\n\
        \  \"ns_per_run\": %s,\n\
        \  \"r_square\": %s\n\
         }\n"
        (num est) (num r2);
      close_out oc;
      print_endline "Wrote BENCH_f13.json"

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Monotonic wall-clock seconds (bechamel's clock, ns resolution):
   immune to NTP slews and wall-clock jumps, unlike Unix.gettimeofday. *)
let now_s () = Int64.to_float (monotonic_now_ns ()) /. 1e9

(* Throughput calibration for BENCH_perf.json: a fixed trial workload
   through the parallel runner, timed as a whole, so the perf trajectory
   records trials/sec at the jobs value CI ran with. *)
let throughput_workload ~jobs =
  let n = 256 and alpha = 0.7 and trials = 48 in
  let spec =
    {
      (Ftc_expt.Runner.default_spec (le ()) ~n ~alpha) with
      Ftc_expt.Runner.adversary = random_adv;
    }
  in
  let seeds = Ftc_expt.Runner.seeds ~base:1 ~count:trials in
  let t0 = now_s () in
  ignore (Ftc_expt.Runner.run_many_par ~jobs spec ~seeds);
  let dt = now_s () -. t0 in
  (Printf.sprintf "leader-election n=%d alpha=%.1f random-crashes x%d trials" n alpha trials,
   trials, dt)

(* Exhaustive-verifier calibration for BENCH_perf.json: one small space
   swept end to end (every crash schedule of the ft-agreement protocol
   at n=3 against every oracle), recording canonical states/sec at the
   jobs value CI ran with. The report is deterministic across --jobs, so
   printing it keeps the CI jobs=1 vs jobs=2 stdout diff meaningful for
   the verifier fan-out too. *)
let verify_workload ~jobs =
  let cfg =
    { (Ftc_verify.Verify.default_config ~protocol:"ft-agreement") with
      Ftc_verify.Verify.n = 3; jobs }
  in
  let t0 = now_s () in
  match Ftc_verify.Verify.run cfg with
  | Error e ->
      Printf.eprintf "verify workload failed: %s\n" e;
      ("verify ft-agreement n=3 exhaustive", 0, 0.)
  | Ok r ->
      let dt = now_s () -. t0 in
      print_endline (Ftc_verify.Verify.summary r);
      ( "verify ft-agreement n=3 alpha=0.5 exhaustive",
        r.Ftc_verify.Verify.explored_states, dt )

(* Fast-engine calibration for BENCH_perf.json: one ft-leader-election
   trial on the hand-written codec port ({!Ftc_sim.Engine.Make_codec}) at a
   pinned large n, recording ns per node-round — the per-unit cost the
   flat-array design is supposed to hold roughly constant as n grows
   (the F1/F2 extended decades up to n = 10^6 depend on it). The budget
   is deliberately loose against CI-runner noise; correctness is owned
   by the differential suite, this gate only catches order-of-magnitude
   regressions (an accidental O(n) scan per round, a lost cache). *)
let fast_engine_budget_ns_per_node_round = 200.

let fast_engine_workload () =
  let n = 100_000 and alpha = 0.5 in
  let spec =
    {
      (Ftc_expt.Runner.default_spec (le ()) ~n ~alpha) with
      Ftc_expt.Runner.adversary = random_adv;
      fast_protocol = Some (Ftc_core.Leader_election_fast.make ~explicit:false params);
    }
  in
  let t0 = now_s () in
  let outcome = Ftc_expt.Runner.run spec ~seed:1 in
  let dt = now_s () -. t0 in
  let rounds = outcome.Ftc_expt.Runner.result.Ftc_sim.Engine.rounds_used in
  (Printf.sprintf "leader-election n=%d alpha=%.1f random-crashes, fast engine" n alpha,
   n, rounds, dt)

(* Telemetry overhead gate: the same trial workload timed with the
   disabled recorder and with a live one, alternated reps with the min
   of each side kept, so frequency scaling and cache warmth cancel out
   instead of landing on one side. CI fails when the live recorder
   costs more than the budget. *)
let telemetry_budget_pct = 5.0

let telemetry_overhead ~jobs =
  let n = 256 and alpha = 0.7 and trials = 24 in
  let spec =
    {
      (Ftc_expt.Runner.default_spec (le ()) ~n ~alpha) with
      Ftc_expt.Runner.adversary = random_adv;
    }
  in
  let seeds = Ftc_expt.Runner.seeds ~base:1 ~count:trials in
  let time_once recorder =
    let t0 = now_s () in
    ignore (Ftc_expt.Runner.run_many_par ~recorder ~jobs spec ~seeds);
    now_s () -. t0
  in
  ignore (time_once Ftc_telemetry.Recorder.disabled) (* warm-up *);
  let off = ref infinity and live = ref infinity in
  for _ = 1 to 3 do
    off := Float.min !off (time_once Ftc_telemetry.Recorder.disabled);
    live := Float.min !live (time_once (Ftc_telemetry.Recorder.create ()))
  done;
  (!off, !live)

(* Service-mode calibration for BENCH_perf.json: a real server (its own
   domain, temp Unix socket, 2 workers) driven end to end by the open-loop
   client, recording instances/sec and submit-to-terminal latency
   quantiles. Exercises the whole serve stack — framing, admission,
   supervision, the exactly-one-reply ledger — under load; the block also
   records [lost], which CI asserts is 0. *)
let serve_run ?(flight = Ftc_telemetry.Flight.disabled) ~total ~n () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftc-bench-serve-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let drain = Atomic.make false in
  let cfg =
    {
      (Ftc_serve.Server.default_config (Ftc_serve.Server.Unix_sock path)) with
      Ftc_serve.Server.workers = 2;
      bound = 64;
      flight;
    }
  in
  let server = Domain.spawn (fun () -> Ftc_serve.Server.run ~drain cfg) in
  let rec wait_bind tries =
    if not (Sys.file_exists path) then
      if tries = 0 then failwith "bench serve: server never bound"
      else begin
        Unix.sleepf 0.02;
        wait_bind (tries - 1)
      end
  in
  wait_bind 250;
  let ccfg =
    {
      (Ftc_serve.Client.default_config (Ftc_serve.Server.Unix_sock path)) with
      Ftc_serve.Client.total;
      n;
      base_seed = 1;
    }
  in
  let t0 = now_s () in
  let stats =
    match Ftc_serve.Client.run ccfg with
    | Ok s -> s
    | Error e -> failwith ("bench serve: client: " ^ e)
  in
  let dt = now_s () -. t0 in
  Atomic.set drain true;
  let summary =
    match Domain.join server with
    | Ok s -> s
    | Error e -> failwith ("bench serve: server: " ^ e)
  in
  if Sys.file_exists path then Sys.remove path;
  (stats, summary, dt)

let serve_workload () =
  (* Modest scale: single-core CI runners serialise the worker domains,
     so instance count, not worker count, sets the wall time here. *)
  let total = 24 and n = 48 in
  let stats, summary, dt = serve_run ~total ~n () in
  Printf.eprintf "[serve workload: %d instances in %.2f s, 2 worker(s)]\n%!" total dt;
  ( Printf.sprintf "serve 2 workers, ft-leader-election n=48 alpha=0.125 x%d instances" total,
    stats, summary, dt )

(* Flight-recorder overhead gate: the serve workload timed with the ring
   disabled and with a live ring, alternated reps with the min of each
   side kept (same protocol as the telemetry gate). The ring sits on the
   serve hot path — every admission, start, round heartbeat, and terminal
   records an event — so this is where the "one bool test when off, one
   short mutexed store when on" design has to prove itself. CI fails when
   the enabled ring costs more than the budget. *)
let flight_budget_pct = 5.0

let flight_overhead () =
  let total = 16 and n = 32 in
  let time_once flight =
    let _, _, dt = serve_run ~flight ~total ~n () in
    dt
  in
  ignore (time_once Ftc_telemetry.Flight.disabled) (* warm-up *);
  (* Five alternated reps, min of each side: a serve rep is sockets plus
     domain spawns, so single runs scatter ~5% — the mins converge to the
     two floors, whose gap is the actual ring cost. *)
  let off = ref infinity and live = ref infinity in
  for _ = 1 to 5 do
    off := Float.min !off (time_once Ftc_telemetry.Flight.disabled);
    live := Float.min !live (time_once (Ftc_telemetry.Flight.create ~capacity:4096))
  done;
  (!off, !live)

let emit_perf_json ~jobs ~experiment_times =
  let workload, trials, dt = throughput_workload ~jobs in
  let tel_off, tel_on = telemetry_overhead ~jobs in
  let overhead_pct =
    if tel_off > 0. then (tel_on -. tel_off) /. tel_off *. 100. else 0.
  in
  let oc = open_out "BENCH_perf.json" in
  Printf.fprintf oc "{\n  \"jobs\": %d,\n  \"clock\": \"monotonic\",\n" jobs;
  Printf.fprintf oc "  \"throughput\": {\n    \"workload\": %S,\n    \"trials\": %d,\n"
    workload trials;
  Printf.fprintf oc "    \"seconds\": %.3f,\n    \"trials_per_sec\": %.1f\n  },\n" dt
    (if dt > 0. then float_of_int trials /. dt else 0.);
  Printf.fprintf oc "  \"telemetry\": {\n    \"off_seconds\": %.3f,\n    \"on_seconds\": %.3f,\n"
    tel_off tel_on;
  Printf.fprintf oc "    \"overhead_pct\": %.1f,\n    \"budget_pct\": %.1f,\n" overhead_pct
    telemetry_budget_pct;
  Printf.fprintf oc "    \"within_budget\": %b\n  },\n" (overhead_pct <= telemetry_budget_pct);
  let v_workload, v_states, v_dt = verify_workload ~jobs in
  Printf.fprintf oc "  \"verify\": {\n    \"workload\": %S,\n    \"states\": %d,\n" v_workload
    v_states;
  Printf.fprintf oc "    \"seconds\": %.3f,\n    \"states_per_sec\": %.1f\n  },\n" v_dt
    (if v_dt > 0. then float_of_int v_states /. v_dt else 0.);
  let fe_workload, fe_n, fe_rounds, fe_dt = fast_engine_workload () in
  let fe_ns =
    if fe_n > 0 && fe_rounds > 0 then fe_dt *. 1e9 /. float_of_int (fe_n * fe_rounds) else 0.
  in
  Printf.fprintf oc "  \"fast_engine\": {\n    \"workload\": %S,\n    \"n\": %d,\n" fe_workload
    fe_n;
  Printf.fprintf oc "    \"rounds\": %d,\n    \"seconds\": %.3f,\n" fe_rounds fe_dt;
  Printf.fprintf oc "    \"ns_per_node_round\": %.1f,\n    \"budget_ns_per_node_round\": %.1f,\n"
    fe_ns fast_engine_budget_ns_per_node_round;
  Printf.fprintf oc "    \"within_budget\": %b\n  },\n"
    (fe_ns <= fast_engine_budget_ns_per_node_round);
  let s_workload, s_stats, s_summary, s_dt = serve_workload () in
  Printf.fprintf oc "  \"serve\": {\n    \"workload\": %S,\n    \"instances\": %d,\n" s_workload
    s_summary.Ftc_serve.Server.results;
  Printf.fprintf oc "    \"seconds\": %.3f,\n    \"instances_per_sec\": %.1f,\n" s_dt
    (if s_dt > 0. then float_of_int s_summary.Ftc_serve.Server.results /. s_dt else 0.);
  Printf.fprintf oc "    \"p50_ms\": %d,\n    \"p99_ms\": %d,\n" s_stats.Ftc_serve.Client.p50_ms
    s_stats.Ftc_serve.Client.p99_ms;
  Printf.fprintf oc "    \"lost\": %d\n  },\n" s_summary.Ftc_serve.Server.lost;
  let fl_off, fl_on = flight_overhead () in
  let fl_pct = if fl_off > 0. then (fl_on -. fl_off) /. fl_off *. 100. else 0. in
  Printf.fprintf oc "  \"flight\": {\n    \"workload\": %S,\n"
    "serve 2 workers, ft-leader-election n=32 x16 instances, ring capacity 4096";
  Printf.fprintf oc "    \"off_seconds\": %.3f,\n    \"on_seconds\": %.3f,\n" fl_off fl_on;
  Printf.fprintf oc "    \"overhead_pct\": %.1f,\n    \"budget_pct\": %.1f,\n" fl_pct
    flight_budget_pct;
  Printf.fprintf oc "    \"within_budget\": %b\n  },\n" (fl_pct <= flight_budget_pct);
  Printf.fprintf oc "  \"experiments\": [\n";
  List.iteri
    (fun i (id, dt) ->
      Printf.fprintf oc "    { \"id\": %S, \"seconds\": %.3f }%s\n" id dt
        (if i = List.length experiment_times - 1 then "" else ","))
    (List.rev experiment_times);
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  prerr_endline "Wrote BENCH_perf.json"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, ids_raw = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  let scale = if List.mem "--quick" flags then Ftc_expt.Def.Quick else Ftc_expt.Def.Full in
  let seed =
    match List.find_opt (starts_with ~prefix:"--seed=") flags with
    | Some s -> int_of_string (String.sub s 7 (String.length s - 7))
    | None -> 1
  in
  let jobs =
    match List.find_opt (starts_with ~prefix:"--jobs=") flags with
    | Some s -> int_of_string (String.sub s 7 (String.length s - 7))
    | None -> 1
  in
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be at least 1 (got %d)\n" jobs;
    exit 2
  end;
  let all_ids = Ftc_expt.Registry.ids () in
  let ids =
    match ids_raw with
    | [] | [ "all" ] -> all_ids
    | ids -> List.map String.uppercase_ascii ids
  in
  List.iter
    (fun id ->
      if Ftc_expt.Registry.find id = None then begin
        Printf.eprintf "unknown experiment %s (known: %s)\n" id (String.concat " " all_ids);
        exit 1
      end)
    ids;
  let keep_going = List.mem "--keep-going" flags in
  if not (List.mem "--no-bench" flags) then emit_f13_json (run_microbenches ids);
  let ctx = { Ftc_expt.Def.scale; base_seed = seed; jobs; journal = None; queue = None; fast_engine = false } in
  let experiment_times = ref [] in
  let failures = ref [] in
  List.iter
    (fun id ->
      match Ftc_expt.Registry.find id with
      | None -> ()
      | Some e -> (
          let t0 = now_s () in
          match e.Ftc_expt.Def.run ctx with
          | report ->
              print_string report;
              print_newline ();
              let dt = now_s () -. t0 in
              experiment_times := (e.Ftc_expt.Def.id, dt) :: !experiment_times;
              (* Timing goes to stderr: stdout must be identical across
                 --jobs values so CI can diff parallel against sequential. *)
              Printf.eprintf "[%s completed in %.1f s, %d job(s)]\n%!" e.Ftc_expt.Def.id dt jobs
          | exception exn when keep_going ->
              failures := e.Ftc_expt.Def.id :: !failures;
              Printf.eprintf "[%s FAILED: %s]\n%!" e.Ftc_expt.Def.id (Printexc.to_string exn)))
    ids;
  emit_perf_json ~jobs ~experiment_times:!experiment_times;
  match List.rev !failures with
  | [] -> ()
  | failed ->
      Printf.eprintf "failed experiments: %s\n%!" (String.concat " " failed);
      (* Same contract as the supervised ftc sweeps: 3 = partial results,
         1 = nothing completed. *)
      exit (if !experiment_times = [] then 1 else 3)
