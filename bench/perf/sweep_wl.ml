(* sweep-election: trials through the domain pool, the way [ftc sweep]
   and the experiments run them. No trace, no oracle, no sockets, so a
   serve or trace change should leave it alone; multi-domain GC and
   allocation costs show here.

   The sweeps run with a live telemetry recorder, as [ftc sweep
   --telemetry] does: its [Trial] events time every trial on its domain
   (the workload's latency), its [Job] events are the pool's queue waits
   and busy slices, and the engine's round clock is armed. *)

open Common

let n = 256
let alpha = 0.5

(* One pool domain per core of the 2-core reference box. *)
let jobs = 2

(* Seeds per [Runner.run_many_par] call. *)
let batch = 8
let sample_every = 8
let digest_units = 16

let spec () =
  {
    (Runner.default_spec (Ftc_core.Leader_election.make Ftc_core.Params.default) ~n ~alpha) with
    Runner.adversary = (fun () -> Strategy.random_crashes ());
  }

let summary (r : Engine.result) =
  ( r.metrics.Ftc_sim.Metrics.msgs_sent,
    r.metrics.bits_sent,
    r.rounds_used,
    (Ftc_core.Properties.check_implicit_election r).ok )

let entry = Option.get (Catalog.find "ft-leader-election")

let run ctx =
  let spec = spec () in
  (* Warm up with one batch through the pool itself: the first calls
     pay for the domains' minor heaps and the major heap's growth. *)
  ignore (Runner.run_many_par ~jobs spec ~seeds:(List.init batch (warm_seed ctx)));
  ctx.ready ();
  let recorder, at = live_recorder () in
  let cpu0 = cpu_s None and gc0 = gc_read () in
  let t0 = now_ms () in
  (* Batches as (start, stop, outcomes), latest first. *)
  let rec loop k acc =
    let last = match acc with (a, b, _) :: _ -> b -. a | [] -> 0. in
    if k > 0 && not (time_left ctx ~t0 ~last_ms:last) then List.rev acc
    else begin
      let seeds = List.init batch (fun j -> unit_seed ctx ((k * batch) + j)) in
      let start = now_ms () in
      let outs = Runner.run_many_par ~recorder ~jobs spec ~seeds in
      loop (k + 1) ((start, now_ms (), outs) :: acc)
    end
  in
  let batches = loop 0 [] in
  let wall_ms = now_ms () -. t0 in
  let cpu = cpu_s None -. cpu0 and gc = gc_diff gc0 (gc_read ()) in
  let rss = peak_rss_mb None in
  let outcomes = List.concat_map (fun (_, _, outs) -> outs) batches in
  let units = List.length outcomes in
  let events = Recorder.events recorder in
  let trial_ms = Hashtbl.create 128 in
  List.iter
    (function
      | Recorder.Trial { seed; dur_ns; _ } ->
          Hashtbl.replace trial_ms seed (Int64.to_float dur_ns /. 1e6)
      | _ -> ())
    events;
  let samples =
    List.map
      (fun (o : Runner.outcome) -> { ms = Hashtbl.find trial_ms o.seed; n; res = o.result })
      outcomes
  in
  (* Determinism contract: a 1-in-8 sample re-run on the jobs = 1 path
     must give the identical execution. *)
  let sample = List.filteri (fun i _ -> i mod sample_every = 0) outcomes in
  let mismatched =
    List.filter
      (fun (o : Runner.outcome) ->
        let again = Runner.run_exn spec ~seed:o.seed in
        summary again.result <> summary o.result || again.result.decisions <> o.result.decisions)
      sample
  in
  let notes =
    List.map
      (fun (o : Runner.outcome) -> Printf.sprintf "seed %d: jobs=2 and jobs=1 runs differ" o.seed)
      mismatched
  in
  let sp = Spans.create () in
  let layers =
    if not ctx.trace then []
    else begin
      let ids =
        List.map
          (fun (start, stop, _) -> (start, stop, Spans.add sp ~name:"sweep.batch" ~key:0 start stop))
          batches
      in
      let slices =
        List.filter_map
          (function
            | Recorder.Job { worker; start_ns; dur_ns; wait_ns; _ } ->
                let start = at start_ns in
                let ms ns = Int64.to_float ns /. 1e6 in
                Some (worker, start -. ms wait_ns, start, start +. ms dur_ns)
            | _ -> None)
          events
      in
      List.iter
        (fun (w, enq, start, fin) ->
          let parent =
            match List.find_opt (fun (a, b, _) -> start >= a && start < b) ids with
            | Some (_, _, id) -> id
            | None -> -1
          in
          ignore (Spans.add sp ~parent ~name:"pool.queue_wait" ~key:(w + 1) enq start);
          ignore (Spans.add sp ~parent ~name:"runner.trial" ~key:(w + 1) start fin))
        slices;
      let busy = sum (List.map (fun (_, _, start, fin) -> fin -. start) slices) in
      let batch_ms = List.map (fun (a, b, _) -> b -. a) batches in
      (* Parallel efficiency: the first two batches again on one domain. *)
      let seeds =
        List.filteri (fun i _ -> i < 2 * batch) outcomes
        |> List.map (fun (o : Runner.outcome) -> o.seed)
      in
      let _, one_ms = timed (fun () -> Runner.run_many spec ~seeds) in
      let two_ms = sum (List.filteri (fun i _ -> i < 2) batch_ms) in
      let inputs = Array.make n 0 in
      let oracle_ms =
        List.map
          (fun (o : Runner.outcome) -> snd (timed (fun () -> Oracle.check entry ~inputs o.result)))
          sample
      in
      cpu_metrics ~cpu_s:cpu ~wall_ms ~units
      @ engine_metrics samples
      @ [ m "oracle.check_ms_p50" "ms" (Stats.median oracle_ms) ]
      @ gc_metrics gc ~units
      @ [ m "pool.utilization" "ratio" (busy /. (float_of_int jobs *. sum batch_ms));
          m "pool.queue_wait_ms_p50" "ms"
            (Stats.median (List.map (fun (_, enq, start, _) -> start -. enq) slices));
          m "pool.parallel_efficiency" "ratio" (one_ms /. (float_of_int jobs *. two_ms)) ]
    end
  in
  {
    units;
    failed = List.length mismatched;
    notes;
    work = float_of_int units;
    wall_ms;
    rss_mb = rss;
    unit_ms = List.map (fun s -> s.ms) samples;
    layers;
    digest = digest ~count:digest_units (List.map (fun (o : Runner.outcome) -> summary o.result) outcomes);
    spans = Spans.spans sp;
  }
