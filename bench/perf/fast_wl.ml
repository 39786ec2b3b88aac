(* fast-election-1e5: sequential trials on the struct-of-arrays fast
   engine at n = 10^5, the only workload that runs neither the closure
   engine nor a pool. A generic SoA adapter replacing the hand-written
   port has to hold this number. *)

open Common

let n = 100_000
let alpha = 0.5
let digest_units = 1

let spec () =
  {
    (Runner.default_spec (Ftc_core.Leader_election.make Ftc_core.Params.default) ~n ~alpha) with
    Runner.adversary = (fun () -> Strategy.random_crashes ());
    fast_protocol =
      Some (Ftc_core.Leader_election_fast.make ~explicit:false Ftc_core.Params.default);
  }

let entry = Option.get (Catalog.find "ft-leader-election")

let run ctx =
  let spec = spec () in
  let inputs = Array.make n 0 in
  ignore (Runner.run spec ~seed:(warm_seed ctx 0));
  ctx.ready ();
  let sp = Spans.create () in
  (* Traced, the run has a live recorder, so the engine times every
     round; the rounds become spans laid end to end from the run's
     start. *)
  let recorder = if ctx.trace then fst (live_recorder ()) else Recorder.disabled in
  let run_one seed =
    let o, ms = timed (fun () -> Runner.run ~recorder spec ~seed) in
    let res = o.Runner.result in
    if ctx.trace then begin
      let stop = now_ms () in
      let parent = Spans.add sp ~name:"fast.run" ~key:0 (stop -. ms) stop in
      ignore
        (List.fold_left
           (fun start d ->
             ignore (Spans.add sp ~parent ~name:"fast_engine.round" ~key:0 start (start +. d));
             start +. d)
           (stop -. ms) (round_ms res))
    end;
    { ms; n; res }
  in
  let cpu0 = cpu_s None and gc0 = gc_read () in
  let t0 = now_ms () in
  let rec loop i acc =
    let last = match acc with s :: _ -> s.ms | [] -> 0. in
    if i > 0 && not (time_left ctx ~t0 ~last_ms:last) then List.rev acc
    else loop (i + 1) (run_one (unit_seed ctx i) :: acc)
  in
  let runs = loop 0 [] in
  let wall_ms = now_ms () -. t0 in
  let cpu = cpu_s None -. cpu0 and gc = gc_diff gc0 (gc_read ()) in
  let rss = peak_rss_mb None in
  let units = List.length runs in
  (* The model and CONGEST oracles must stay silent; election itself is
     a with-high-probability property and only counts in the digest. *)
  let checked =
    List.map
      (fun s ->
        let findings, ms = timed (fun () -> Oracle.check entry ~inputs s.res) in
        ( List.filter
            (fun (f : Oracle.finding) -> f.oracle = "model" || f.oracle = "congest")
            findings,
          ms ))
      runs
  in
  let bad = List.filter (fun (fs, _) -> fs <> []) checked in
  let notes =
    List.map
      (fun (fs, _) ->
        String.concat "; " (List.map (fun (f : Oracle.finding) -> f.oracle ^ ": " ^ f.detail) fs))
      bad
  in
  let node_rounds = sum (List.map (fun s -> float_of_int (n * s.res.Engine.rounds_used)) runs) in
  let layers =
    if not ctx.trace then []
    else
      let rounds = List.concat_map (fun s -> round_ms s.res) runs in
      let msgs =
        sum (List.map (fun s -> float_of_int s.res.metrics.Ftc_sim.Metrics.msgs_sent) runs)
      in
      cpu_metrics ~cpu_s:cpu ~wall_ms ~units
      @ engine_metrics runs
      @ [ m "oracle.check_ms_p50" "ms" (Stats.median (List.map snd checked)) ]
      @ gc_metrics gc ~units
      @ [ m "fast_engine.ns_per_msg" "ns" (1e6 *. sum (List.map (fun s -> s.ms) runs) /. msgs);
          m "fast_engine.round_ms_max" "ms" (List.fold_left Float.max 0. rounds) ]
  in
  {
    units;
    failed = List.length bad;
    notes;
    work = node_rounds;
    wall_ms;
    rss_mb = rss;
    unit_ms = List.map (fun s -> s.ms) runs;
    layers;
    digest =
      digest ~count:digest_units
        (List.map
           (fun s ->
             ( s.res.metrics.Ftc_sim.Metrics.msgs_sent,
               s.res.metrics.bits_sent,
               s.res.rounds_used,
               (Ftc_core.Properties.check_implicit_election s.res).ok ))
           runs);
    spans = Spans.spans sp;
  }
