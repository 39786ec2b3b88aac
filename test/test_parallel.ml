(* The parallel runner's determinism contract, the domain pool's own
   invariants, and the single-pass aggregate.

   The contract under test: [Runner.run_many_par ~jobs] is bit-identical
   to [Runner.run_many] — same metrics, decisions, observations, fault
   pattern, violations, traces and transport stats, in the same (seed)
   order — for every protocol, adversary, loss model and job count.
   Trials share no state, so the only thing parallelism may change is
   the interleaving of their execution, which must be unobservable. *)

module Runner = Ftc_expt.Runner
module Pool = Ftc_parallel.Pool
module Strategy = Ftc_fault.Strategy
module Omission = Ftc_fault.Omission
module Engine = Ftc_sim.Engine
module Metrics = Ftc_sim.Metrics
module Trace = Ftc_sim.Trace
module Transport = Ftc_transport.Transport
module Stats = Ftc_analysis.Stats

let job_counts = [ 1; 2; 4 ]
let seeds = Runner.seeds ~base:7 ~count:5

(* Field-by-field equality. [Trace.t] is abstract, so the logged events
   are compared rather than the log values themselves; everything else is
   immutable-after-run data where structural equality is exact. *)
let events t = List.rev (Trace.fold (fun acc e -> e :: acc) [] t)

let outcome_equal (a : Runner.outcome) (b : Runner.outcome) =
  let ra = a.result and rb = b.result in
  a.seed = b.seed
  && a.inputs_used = b.inputs_used
  && a.transport_stats = b.transport_stats
  && ra.Engine.decisions = rb.Engine.decisions
  && ra.observations = rb.observations
  && ra.faulty = rb.faulty
  && ra.crashed = rb.crashed
  && ra.crash_round = rb.crash_round
  && ra.rounds_used = rb.rounds_used
  && ra.timed_out = rb.timed_out
  && ra.watchdog_expired = rb.watchdog_expired
  && ra.metrics = rb.metrics
  && ra.violations = rb.violations
  &&
  match (ra.trace, rb.trace) with
  | None, None -> true
  | Some ta, Some tb -> events ta = events tb
  | _ -> false

(* [raw] compares through [run_many_par_raw] against per-seed [Runner.run],
   for specs whose outcomes may carry violations (heavy raw loss). *)
let check_par_equals_seq ?(raw = false) name spec =
  let seq =
    if raw then List.map (fun seed -> Runner.run spec ~seed) seeds
    else Runner.run_many spec ~seeds
  in
  List.iter
    (fun jobs ->
      let par =
        if raw then Runner.run_many_par_raw ~jobs spec ~seeds
        else Runner.run_many_par ~jobs spec ~seeds
      in
      Alcotest.(check int)
        (Printf.sprintf "%s jobs=%d: outcome count" name jobs)
        (List.length seq) (List.length par);
      List.iter2
        (fun a b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s jobs=%d seed=%d: bit-identical" name jobs
               a.Runner.seed)
            true (outcome_equal a b))
        seq par)
    job_counts

let protocols () =
  [
    ("election", Ftc_core.Leader_election.make Ftc_core.Params.default);
    ("agreement", Ftc_core.Agreement.make Ftc_core.Params.default);
  ]

let base_spec protocol =
  {
    (Runner.default_spec protocol ~n:48 ~alpha:0.7) with
    Runner.inputs = Runner.Random_bits 0.5;
    trace = Trace.Log;
  }

(* Both protocols under all seven adversary strategies, traces on. *)
let test_par_matches_seq_all_adversaries () =
  List.iter
    (fun (pname, protocol) ->
      List.iter
        (fun (sname, adversary) ->
          check_par_equals_seq
            (pname ^ "/" ^ sname)
            { (base_spec protocol) with Runner.adversary })
        (Strategy.all ()))
    (protocols ())

(* Raw protocols under the omission loss models (violations stay data). *)
let test_par_matches_seq_lossy_raw () =
  List.iter
    (fun (pname, protocol) ->
      List.iter
        (fun (lname, link) ->
          check_par_equals_seq ~raw:true
            (pname ^ "/raw+" ^ lname)
            { (base_spec protocol) with Runner.link })
        [
          ("uniform", Omission.lossy_uniform ~rate:0.25);
          ("burst", Omission.lossy_burst ~rate:0.15 ~mean_len:3.0);
        ])
    (protocols ())

(* Transport-wrapped runs under light loss plus crashes: the outcome's
   [transport_stats] must also come back bit-identical. *)
let test_par_matches_seq_transport () =
  List.iter
    (fun (pname, protocol) ->
      check_par_equals_seq
        (pname ^ "/transport")
        {
          (base_spec protocol) with
          Runner.link = Omission.lossy_uniform ~rate:0.05;
          transport = Some Transport.default_config;
          adversary = (fun () -> Ftc_fault.Strategy.random_crashes ());
        })
    (protocols ())

let test_par_rejects_bad_jobs () =
  let spec = base_spec (Ftc_core.Agreement.make Ftc_core.Params.default) in
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Runner.run_many_par: jobs must be >= 1") (fun () ->
      ignore (Runner.run_many_par ~jobs:0 spec ~seeds:[ 1 ]))

(* -- the domain pool itself -- *)

(* Spin for a caller-chosen number of iterations so worker completion
   order genuinely varies, without sleeping wall-clock time. *)
let busy_work iters =
  let acc = ref 0 in
  for i = 1 to iters do
    acc := (!acc * 7) + i
  done;
  !acc

let qcheck_pool_exactly_once =
  QCheck.Test.make ~name:"every job runs exactly once, in-order results"
    ~count:30
    QCheck.(pair (int_range 1 4) (int_range 0 40))
    (fun (jobs, len) ->
      let counters = Array.init len (fun _ -> Atomic.make 0) in
      let results =
        Pool.run_map ~jobs
          (fun i ->
            Atomic.incr counters.(i);
            i)
          (List.init len Fun.id)
      in
      results = List.init len Fun.id
      && Array.for_all (fun c -> Atomic.get c = 1) counters)

let qcheck_pool_results_at_submission_index =
  QCheck.Test.make
    ~name:"results land at their submission index under skewed durations"
    ~count:25
    QCheck.(pair (int_range 2 4) (small_list (int_range 0 20_000)))
    (fun (jobs, durations) ->
      let expected = List.mapi (fun i d -> (i, busy_work d)) durations in
      let got =
        Pool.run_map ~jobs
          (fun (i, d) -> (i, busy_work d))
          (List.mapi (fun i d -> (i, d)) durations)
      in
      got = expected)

exception Poisoned of int

(* A worker checks for a failure before each claim, so once item [bad]
   has raised, each other worker finishes the item it holds and starts
   at most one more. The 40-60 items after [bad] take ~3 ms each, so a
   map that kept claiming would run all of them; one that stops leaves
   most unstarted. *)
let qcheck_pool_raising_job_cancels_and_reraises =
  QCheck.Test.make ~name:"a raising job cancels the rest and re-raises"
    ~count:20
    QCheck.(pair (int_range 2 4) (pair (int_range 0 9) (int_range 40 60)))
    (fun (jobs, (bad, after)) ->
      let len = bad + 1 + after in
      let started = Atomic.make 0 in
      let raised =
        match
          Pool.run_map ~jobs
            (fun i ->
              Atomic.incr started;
              if i = bad then raise (Poisoned i);
              ignore (busy_work (if i > bad then 2_000_000 else 1_000));
              i)
            (List.init len Fun.id)
        with
        | _ -> false
        | exception Poisoned i -> i = bad
      in
      raised && Atomic.get started < len && Pool.run_map ~jobs succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

(* The call returns only after every worker has: no item runs, or is
   still running, once [run_map] has returned or raised. *)
let test_nothing_runs_after_return () =
  let returned = Atomic.make false and late = Atomic.make 0 in
  let item i =
    if Atomic.get returned then Atomic.incr late;
    ignore (busy_work (1_000 * (i mod 7)));
    if i = 13 then raise (Poisoned i);
    if Atomic.get returned then Atomic.incr late;
    i
  in
  List.iter
    (fun xs ->
      (try ignore (Pool.run_map ~jobs:3 item xs) with Poisoned _ -> ());
      Atomic.set returned true;
      ignore (busy_work 200_000);
      Alcotest.(check int) "no item ran after the call returned" 0 (Atomic.get late);
      Atomic.set returned false)
    [ List.init 12 Fun.id; List.init 40 Fun.id ]

let test_pool_rejects_bad_jobs () =
  Alcotest.check_raises "run_map jobs=0 rejected"
    (Invalid_argument "Pool.run_map: jobs must be >= 1") (fun () ->
      ignore (Pool.run_map ~jobs:0 Fun.id [ 1 ]));
  Alcotest.check_raises "run_workers jobs=0 rejected"
    (Invalid_argument "Pool.run_workers: jobs must be >= 1") (fun () ->
      Pool.run_workers ~jobs:0 ignore)

(* Worker domains outlive the call: later maps run on the domains
   earlier ones parked instead of spawning fresh ones (whose exit would
   strand their heap). Every spawn gets a new domain id, so twenty
   two-worker maps that each spawned would show twenty-one ids; reuse
   keeps it to the caller and the few domains earlier tests in this
   process left parked. *)
let test_pool_reuses_domains () =
  let ids =
    List.concat_map
      (fun _ ->
        Pool.run_map ~jobs:2
          (fun _ ->
            ignore (busy_work 20_000);
            (Domain.self () :> int))
          (List.init 8 Fun.id))
      (List.init 20 Fun.id)
  in
  Alcotest.(check bool) "domains reused across calls" true
    (List.length (List.sort_uniq compare ids) <= 8)

(* A monitor callback that raises fails the map like a raising item. *)
let test_raising_monitor_reraised () =
  let monitor =
    {
      Pool.now_ns = (fun () -> 0L);
      enqueued = (fun ~depth:_ -> ());
      job_done = (fun ~worker:_ ~enqueued_ns:_ ~started_ns:_ ~finished_ns:_ -> raise Exit);
    }
  in
  Alcotest.check_raises "run_map re-raises" Exit (fun () ->
      ignore (Pool.run_map ~monitor ~jobs:2 succ [ 1; 2; 3 ]))

(* Worker 0 is the calling domain; a raise on its share and a raise on
   a spawned domain's share both come back to the caller. *)
let test_raise_on_any_worker () =
  let self = Domain.self () in
  List.iter
    (fun bad ->
      let ran_on = Array.make 2 self in
      Alcotest.check_raises
        (Printf.sprintf "worker %d's raise re-raised" bad)
        (Poisoned bad)
        (fun () ->
          Pool.run_workers ~jobs:2 (fun w ->
              ran_on.(w) <- Domain.self ();
              if w = bad then raise (Poisoned w)));
      Alcotest.(check bool) "worker 0 ran on the caller" true (ran_on.(0) = self);
      Alcotest.(check bool) "worker 1 ran elsewhere" true (ran_on.(1) <> self))
    [ 0; 1 ]

(* Every item holds its worker until two distinct domains have started
   items (or a second has passed), so both the caller and the other
   worker run some, however the claims race. *)
let test_caller_runs_items () =
  let self = Domain.self () in
  let seen = Atomic.make [] in
  let rec note d =
    let ds = Atomic.get seen in
    if not (List.mem d ds || Atomic.compare_and_set seen ds (d :: ds)) then note d
  in
  let domains =
    Pool.run_map ~jobs:2
      (fun _ ->
        let d = Domain.self () in
        note d;
        let t0 = Unix.gettimeofday () in
        while List.length (Atomic.get seen) < 2 && Unix.gettimeofday () -. t0 < 1. do
          Domain.cpu_relax ()
        done;
        d)
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "some items ran on the calling domain" true
    (List.mem self domains);
  Alcotest.(check bool) "some items ran on another domain" true
    (List.exists (fun d -> d <> self) domains)

(* -- per-slot result capture (the keep-going primitive) -- *)

let qcheck_map_results_no_cancellation =
  QCheck.Test.make ~name:"map_results: every element runs, failures stay in their slot"
    ~count:25
    QCheck.(pair (int_range 1 4) (int_range 0 30))
    (fun (jobs, len) ->
      let ran = Array.init len (fun _ -> Atomic.make 0) in
      let results =
        Pool.run_map_results ~jobs
          (fun i ->
            Atomic.incr ran.(i);
            ignore (busy_work 500);
            if i mod 3 = 0 then raise (Poisoned i);
            i * 2)
          (List.init len Fun.id)
      in
      List.length results = len
      && Array.for_all (fun c -> Atomic.get c = 1) ran
      && List.for_all2
           (fun i r ->
             match r with
             | Ok v -> i mod 3 <> 0 && v = i * 2
             | Error (Poisoned j, _) -> i mod 3 = 0 && j = i
             | Error _ -> false)
           (List.init len Fun.id)
           results)

let test_map_results_pool_reusable () =
  let r =
    Pool.run_map_results ~jobs:2 (fun i -> if i = 1 then raise Exit else i) [ 0; 1; 2 ]
  in
  Alcotest.(check int) "three slots" 3 (List.length r);
  Alcotest.(check bool) "slot 1 failed" true
    (match List.nth r 1 with Error (Exit, _) -> true | _ -> false);
  Alcotest.(check (list int)) "domains serve the next map" [ 2; 3; 4 ]
    (Pool.run_map ~jobs:2 succ [ 1; 2; 3 ])

(* -- the single-pass aggregate, pinned against a hand-computed fixture -- *)

let fixture_outcome ~seed ~msgs ~bits ~rounds : Runner.outcome =
  let metrics = Metrics.create () in
  metrics.Metrics.msgs_sent <- msgs;
  metrics.Metrics.bits_sent <- bits;
  metrics.Metrics.rounds_used <- rounds;
  {
    Runner.result =
      {
        Engine.decisions = [||];
        observations = [||];
        faulty = [||];
        crashed = [||];
        crash_round = [||];
        rounds_used = rounds;
        timed_out = false;
        watchdog_expired = false;
        metrics;
        trace = None;
        violations = [];
        round_ns = [||];
      };
    inputs_used = [||];
    seed;
    transport_stats = None;
  }

let test_aggregate_fixture () =
  (* msgs 10 20 30 40: mean 25, median 25, p10 13, p90 37,
     sample stddev sqrt(500/3). *)
  let outcomes =
    List.mapi
      (fun i msgs -> fixture_outcome ~seed:i ~msgs ~bits:(msgs * 8) ~rounds:(i + 1))
      [ 10; 20; 30; 40 ]
  in
  let agg =
    Runner.aggregate
      ~ok:(fun o -> o.Runner.result.Engine.metrics.Metrics.msgs_sent <= 30)
      outcomes
  in
  Alcotest.(check int) "trials" 4 agg.Runner.trials;
  Alcotest.(check int) "successes" 3 agg.Runner.successes;
  Alcotest.(check (float 1e-9)) "rate" 0.75 agg.Runner.success_rate;
  let m = agg.Runner.msgs in
  Alcotest.(check int) "count" 4 m.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 25.0 m.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 25.0 m.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 10.0 m.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 40.0 m.Stats.max;
  Alcotest.(check (float 1e-9)) "p10" 13.0 m.Stats.p10;
  Alcotest.(check (float 1e-9)) "p90" 37.0 m.Stats.p90;
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (500.0 /. 3.0)) m.Stats.stddev;
  Alcotest.(check (float 1e-9)) "bits mean" 200.0 agg.Runner.bits.Stats.mean;
  Alcotest.(check (float 1e-9)) "rounds mean" 2.5 agg.Runner.rounds.Stats.mean

let test_aggregate_matches_sequential_formula () =
  (* The single-pass rewrite must agree with the obvious two-pass map. *)
  let spec =
    {
      (Runner.default_spec
         (Ftc_core.Leader_election.make Ftc_core.Params.default)
         ~n:48 ~alpha:0.7)
      with
      Runner.adversary = (fun () -> Ftc_fault.Strategy.random_crashes ());
    }
  in
  let outcomes = Runner.run_many spec ~seeds:(Runner.seeds ~base:2 ~count:8) in
  let agg = Runner.aggregate ~ok:(fun _ -> true) outcomes in
  let manual =
    Stats.summarize
      (List.map
         (fun (o : Runner.outcome) ->
           float_of_int o.result.Engine.metrics.Metrics.msgs_sent)
         outcomes)
  in
  Alcotest.(check (float 0.)) "mean identical" manual.Stats.mean
    agg.Runner.msgs.Stats.mean;
  Alcotest.(check (float 0.)) "stddev identical" manual.Stats.stddev
    agg.Runner.msgs.Stats.stddev;
  Alcotest.(check (float 0.)) "p90 identical" manual.Stats.p90
    agg.Runner.msgs.Stats.p90

let qcheck cases = List.map QCheck_alcotest.to_alcotest cases

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "par = seq, all adversaries" `Quick
            test_par_matches_seq_all_adversaries;
          Alcotest.test_case "par = seq, lossy raw" `Quick
            test_par_matches_seq_lossy_raw;
          Alcotest.test_case "par = seq, transport-wrapped" `Quick
            test_par_matches_seq_transport;
          Alcotest.test_case "jobs < 1 rejected" `Quick test_par_rejects_bad_jobs;
        ] );
      ( "pool",
        qcheck
          [
            qcheck_pool_exactly_once;
            qcheck_pool_results_at_submission_index;
            qcheck_pool_raising_job_cancels_and_reraises;
          ]
        @ [
            Alcotest.test_case "nothing runs after return" `Quick
              test_nothing_runs_after_return;
            Alcotest.test_case "jobs < 1 rejected" `Quick
              test_pool_rejects_bad_jobs;
            Alcotest.test_case "domains outlive their pool" `Quick test_pool_reuses_domains;
            Alcotest.test_case "a raising monitor is re-raised" `Quick
              test_raising_monitor_reraised;
            Alcotest.test_case "raises on any worker re-raised" `Quick
              test_raise_on_any_worker;
            Alcotest.test_case "caller domain runs items" `Quick test_caller_runs_items;
          ] );
      ( "results-capture",
        qcheck [ qcheck_map_results_no_cancellation ]
        @ [
            Alcotest.test_case "map_results isolates failures, pool reusable" `Quick
              test_map_results_pool_reusable;
          ] );
      ( "aggregate",
        [
          Alcotest.test_case "hand-computed fixture" `Quick
            test_aggregate_fixture;
          Alcotest.test_case "matches two-pass formula" `Quick
            test_aggregate_matches_sequential_formula;
        ] );
    ]
