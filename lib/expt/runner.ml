module Engine = Ftc_sim.Engine
module Rng = Ftc_rng.Rng
module Dist = Ftc_rng.Dist

type input_gen = Zeros | All_ones | Random_bits of float | Exact of int array

type spec = {
  protocol : (module Ftc_sim.Protocol.S);
  n : int;
  alpha : float;
  inputs : input_gen;
  adversary : unit -> Ftc_sim.Adversary.t;
  link : unit -> Ftc_sim.Link.t;
  queue : Ftc_sim.Queue_model.config option;
  transport : Ftc_transport.Transport.config option;
  congest : bool;
  trace : Ftc_sim.Trace.mode;
  trial_timeout : float option;
  fast_protocol : (module Ftc_sim.Fast_protocol.S) option;
}

let default_spec protocol ~n ~alpha =
  {
    protocol;
    n;
    alpha;
    inputs = Zeros;
    adversary = Ftc_fault.Strategy.none;
    link = (fun () -> Ftc_sim.Link.reliable);
    queue = None;
    transport = None;
    congest = true;
    trace = Ftc_sim.Trace.Off;
    trial_timeout = None;
    fast_protocol = None;
  }

type outcome = {
  result : Engine.result;
  inputs_used : int array;
  seed : int;
  transport_stats : Ftc_transport.Transport.stats option;
}

exception
  Model_violation of {
    protocol : string;
    n : int;
    alpha : float;
    seed : int;
    violations : Ftc_sim.Violation.t list;
  }

let () =
  Printexc.register_printer (function
    | Model_violation { protocol; n; alpha; seed; violations } ->
        Some
          (Printf.sprintf "model violations in %s (n=%d alpha=%.2f seed=%d):\n  %s" protocol n
             alpha seed
             (String.concat "\n  " (List.map Ftc_sim.Violation.to_string violations)))
    | _ -> None)

let materialize_inputs spec ~seed =
  match spec.inputs with
  | Zeros -> Array.make spec.n 0
  | All_ones -> Array.make spec.n 1
  | Exact a ->
      if Array.length a <> spec.n then
        invalid_arg
          (Printf.sprintf "Runner.materialize_inputs: Exact inputs length %d <> spec.n = %d"
             (Array.length a) spec.n);
      a
  | Random_bits p ->
      (* A distinct stream from the engine's seed, so inputs do not
         correlate with node coins. *)
      let rng = Rng.create (seed lxor 0x5bd1e995) in
      Array.init spec.n (fun _ -> if Dist.bernoulli rng p then 1 else 0)

(* A wall-clock deadline armed now. The engine polls it between rounds;
   the simulation itself stays a pure function of the seed — only how
   far it got can differ. *)
let deadline limit =
  let start = Unix.gettimeofday () in
  fun () -> Unix.gettimeofday () -. start >= limit

(* The model-level health of a run, not the experiment's statistical
   success predicate (which belongs to the caller): violations, timeout,
   or a watchdog stop mark a trial failed in telemetry. *)
let model_clean (r : Engine.result) =
  r.violations = [] && (not r.timed_out) && not r.watchdog_expired

let run_judged ?watchdog ?(recorder = Ftc_telemetry.Recorder.disabled) spec ~seed ~judge =
  (* Transport framing lets a data message and an ack share an edge-round,
     so wrapped runs get double the paper's per-edge budget — the framing
     itself is O(log n), so the doubling is honest. *)
  let protocol, transport_stats, congest_factor =
    match spec.transport with
    | None -> (spec.protocol, None, 1)
    | Some config ->
        let wrapped, stats = Ftc_transport.Transport.wrap ~config spec.protocol in
        (wrapped, Some stats, 2)
  in
  let (module P : Ftc_sim.Protocol.S) = protocol in
  let inputs = materialize_inputs spec ~seed in
  let telemetry_on = Ftc_telemetry.Recorder.enabled recorder in
  let start_ns = Ftc_telemetry.Recorder.now_ns recorder in
  let cfg =
    {
      Engine.n = spec.n;
      alpha = spec.alpha;
      seed;
      inputs = Some inputs;
      adversary = spec.adversary ();
      link = spec.link ();
      queue = spec.queue;
      congest_limit =
        (if spec.congest then Some (congest_factor * Ftc_sim.Congest.default_limit ~n:spec.n)
         else None);
      trace = spec.trace;
      max_rounds_override = None;
      watchdog =
        (match watchdog with
        | Some _ -> watchdog
        | None -> Option.map deadline spec.trial_timeout);
      round_clock =
        (if telemetry_on then Some (fun () -> Ftc_telemetry.Recorder.now_ns recorder)
         else None);
    }
  in
  (* The codec port runs wherever it applies. The transport wrapper
     transforms a Protocol.S, so a wrapped run takes the adapter — with
     the same results, by the differential suite's contract. *)
  let result =
    match spec.fast_protocol with
    | Some fm when spec.transport = None ->
        let module E = Engine.Make_codec ((val fm : Ftc_sim.Fast_protocol.S)) in
        E.run cfg
    | Some _ | None ->
        let module E = Engine.Make (P) in
        E.run cfg
  in
  let outcome = { result; inputs_used = inputs; seed; transport_stats } in
  let verdict, ok = judge outcome in
  if telemetry_on then begin
    let m = result.Engine.metrics in
    Ftc_telemetry.Instrument.record_run recorder ~protocol:P.name ~seed ~ok
      ~phases:(P.phases ~n:spec.n ~alpha:spec.alpha)
      ~rounds_used:result.Engine.rounds_used
      ~per_round_msgs:m.Ftc_sim.Metrics.per_round_msgs
      ~per_round_bits:m.Ftc_sim.Metrics.per_round_bits ~msgs:m.Ftc_sim.Metrics.msgs_sent
      ~bits:m.Ftc_sim.Metrics.bits_sent ~dropped:m.Ftc_sim.Metrics.msgs_dropped
      ~lost_link:m.Ftc_sim.Metrics.msgs_lost_link
      ~queue_dropped:m.Ftc_sim.Metrics.msgs_dropped_queue
      ~ecn_marked:m.Ftc_sim.Metrics.msgs_ecn_marked
      ~per_round_queue_peak:m.Ftc_sim.Metrics.per_round_queue_peak
      ~unroutable:m.Ftc_sim.Metrics.msgs_unroutable ~round_ns:result.Engine.round_ns
      ~start_ns
  end;
  (outcome, verdict)

let run ?recorder spec ~seed =
  fst (run_judged ?recorder spec ~seed ~judge:(fun o -> ((), model_clean o.result)))

let violations o = o.result.Engine.violations

let ensure_clean spec o =
  match violations o with
  | [] -> ()
  | vs ->
      let (module P : Ftc_sim.Protocol.S) = spec.protocol in
      raise
        (Model_violation
           { protocol = P.name; n = spec.n; alpha = spec.alpha; seed = o.seed; violations = vs })

let run_exn ?recorder spec ~seed =
  let o = run ?recorder spec ~seed in
  ensure_clean spec o;
  o

let run_many ?recorder spec ~seeds = List.map (fun seed -> run_exn ?recorder spec ~seed) seeds

(* Trials are independent by construction — every run builds its own rng
   tree from its seed, and the adversary/link/transport factories are
   invoked per run — so a parallel map over seeds produces bit-identical
   outcomes to the sequential path. The violation check happens after the
   map, walking outcomes in seed order, so the caller observes the same
   exception (the first violating seed's) as [run_many] would. *)
let run_many_par ?(recorder = Ftc_telemetry.Recorder.disabled) ~jobs spec ~seeds =
  if jobs < 1 then invalid_arg "Runner.run_many_par: jobs must be >= 1";
  let outcomes =
    Ftc_parallel.Pool.run_map
      ?monitor:(Ftc_telemetry.Instrument.pool_monitor recorder "trials")
      ~jobs
      (fun seed -> run ~recorder spec ~seed)
      seeds
  in
  List.iter (ensure_clean spec) outcomes;
  outcomes

let run_many_par_raw ?(recorder = Ftc_telemetry.Recorder.disabled) ~jobs spec ~seeds =
  if jobs < 1 then invalid_arg "Runner.run_many_par_raw: jobs must be >= 1";
  Ftc_parallel.Pool.run_map
    ?monitor:(Ftc_telemetry.Instrument.pool_monitor recorder "trials")
    ~jobs
    (fun seed -> run ~recorder spec ~seed)
    seeds

type trial_stats = { success : bool; msgs : int; bits : int; rounds : int }

let stats_of ~ok o =
  let m = o.result.Engine.metrics in
  {
    success = ok o;
    msgs = m.Ftc_sim.Metrics.msgs_sent;
    bits = m.Ftc_sim.Metrics.bits_sent;
    rounds = o.result.Engine.rounds_used;
  }

type aggregate = {
  trials : int;
  successes : int;
  success_rate : float;
  msgs : Ftc_analysis.Stats.summary;
  bits : Ftc_analysis.Stats.summary;
  rounds : Ftc_analysis.Stats.summary;
}

let empty_aggregate =
  let e = Ftc_analysis.Stats.empty in
  { trials = 0; successes = 0; success_rate = 0.; msgs = e; bits = e; rounds = e }

(* One pass over the stats: counts and the three metric series are
   accumulated together (reversed, then re-reversed so the summaries see
   trial order and float accumulation is unchanged). An empty sweep — every
   trial failed or was skipped under --keep-going — aggregates to the
   structured zero rather than raising, so partial reports always render. *)
let aggregate_stats stats =
  let trials = ref 0 and successes = ref 0 in
  let msgs = ref [] and bits = ref [] and rounds = ref [] in
  List.iter
    (fun s ->
      incr trials;
      if s.success then incr successes;
      msgs := float_of_int s.msgs :: !msgs;
      bits := float_of_int s.bits :: !bits;
      rounds := float_of_int s.rounds :: !rounds)
    stats;
  if !trials = 0 then empty_aggregate
  else
    {
      trials = !trials;
      successes = !successes;
      success_rate = float_of_int !successes /. float_of_int !trials;
      msgs = Ftc_analysis.Stats.summarize (List.rev !msgs);
      bits = Ftc_analysis.Stats.summarize (List.rev !bits);
      rounds = Ftc_analysis.Stats.summarize (List.rev !rounds);
    }

let aggregate ~ok outcomes = aggregate_stats (List.map (stats_of ~ok) outcomes)

let seeds ~base ~count = List.init count (fun i -> base + (1009 * i))
