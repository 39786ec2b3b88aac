(* verify-agreement-n4: the exhaustive verifier over every canonical
   crash schedule of ft-agreement at n = 4. Hundreds of thousands of
   tiny traced cases, so fixed per-case costs (validation, trace,
   oracle passes, enumeration, chunking) dominate, not per-message
   work. *)

open Common
module Verify = Ftc_verify.Verify
module Space = Ftc_verify.Space

(* Canonical states of the space; every pass must explore all of them. *)
let states = 587_501
let jobs = 2
let sample_every = 1000

let verify ?recorder cfg =
  match Verify.run ?recorder cfg with Ok r -> r | Error e -> failwith ("verify: " ^ e)

(* The pass as spans: the run, one span per chunk (chunks end at the
   verifier's heartbeats), and inside each chunk its pool slices and
   their queue waits. A chunk's self time is its serial share. *)
let traced_pass sp cfg =
  let recorder, at = live_recorder () in
  let report, ms = timed (fun () -> verify ~recorder cfg) in
  let stop = now_ms () in
  let root = Spans.add sp ~name:"verify.run" ~key:0 (stop -. ms) stop in
  let events = Recorder.events recorder in
  let beats =
    List.filter_map (function Recorder.Heartbeat { at_ns; _ } -> Some (at at_ns) | _ -> None) events
  in
  let chunks =
    List.rev
      (snd
         (List.fold_left
            (fun (start, acc) stop ->
              let id = Spans.add sp ~parent:root ~name:"verify.chunk" ~key:0 start stop in
              (stop, (start, stop, id) :: acc))
            (stop -. ms, []) beats))
  in
  let jobs_seen =
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
        match List.find_opt (fun (a, b, _) -> start >= a && start < b) chunks with
        | Some (_, _, id) -> id
        | None -> root
      in
      ignore (Spans.add sp ~parent ~name:"pool.queue_wait" ~key:(w + 1) enq start);
      ignore (Spans.add sp ~parent ~name:"verify.slice" ~key:(w + 1) start fin))
    jobs_seen;
  ((report, ms), jobs_seen)

let run ctx =
  let cfg =
    {
      (Verify.default_config ~protocol:"ft-agreement") with
      Verify.n = 4;
      jobs;
      base_seed = ctx.seed;
    }
  in
  ignore (verify { cfg with max_states = Some 512 });
  ctx.ready ();
  let sp = Spans.create () in
  let slices = ref [] in
  let pass () =
    if not ctx.trace then timed (fun () -> verify cfg)
    else begin
      let r, jobs_seen = traced_pass sp cfg in
      slices := jobs_seen @ !slices;
      r
    end
  in
  let cpu0 = cpu_s None and gc0 = gc_read () in
  let t0 = now_ms () in
  let rec loop acc =
    let last = match acc with (_, ms) :: _ -> ms | [] -> 0. in
    if acc <> [] && not (time_left ctx ~t0 ~last_ms:last) then List.rev acc
    else loop (pass () :: acc)
  in
  let passes = loop [] in
  let wall_ms = now_ms () -. t0 in
  let cpu = cpu_s None -. cpu0 and gc = gc_diff gc0 (gc_read ()) in
  let rss = peak_rss_mb None in
  let units = List.fold_left (fun a ((r : Verify.report), _) -> a + r.total_states) 0 passes in
  let failed =
    List.fold_left
      (fun a ((r : Verify.report), _) ->
        a + List.length r.violations + (r.total_states - r.explored_states))
      0 passes
  in
  let notes =
    List.filter_map
      (fun ((r : Verify.report), _) ->
        if r.complete && r.explored_states = states && r.total_states = states && r.violations = []
        then None
        else
          Some
            (Printf.sprintf "pass explored %d of %d states (expected %d) with %d violation(s)"
               r.explored_states r.total_states states (List.length r.violations)))
      passes
  in
  let layers =
    if not ctx.trace then []
    else begin
      let space =
        match Space.make ~protocol:cfg.protocol ~n:cfg.n ~alpha:cfg.alpha () with
        | Ok s -> s
        | Error e -> failwith e
      in
      let to_case = Space.to_case space ~base_seed:cfg.base_seed ~seed_index:0 in
      let (), enum_ms =
        timed (fun () -> Seq.iter (fun s -> ignore (to_case s)) (Space.states space))
      in
      let sample =
        Seq.fold_left
          (fun (i, acc) s -> (i + 1, if i mod sample_every = 0 then s :: acc else acc))
          (0, []) (Space.states space)
        |> snd |> List.rev
      in
      let costs = List.map (fun s -> instance_cost (to_case s)) sample in
      let slice_ms = List.map (fun (_, _, start, fin) -> fin -. start) !slices in
      cpu_metrics ~cpu_s:cpu ~wall_ms ~units
      @ cost_metrics costs
      @ gc_metrics gc ~units
      @ [ m "space.enum_us_per_state" "us" (enum_ms *. 1000. /. float_of_int states);
          m "verify.case_us_p50" "us" (1000. *. Stats.median (List.map (fun c -> c.case_ms) costs));
          m "verify.oracle_us_p50" "us"
            (1000. *. Stats.median (List.map (fun c -> c.oracle_ms) costs));
          m "pool.utilization" "ratio"
            (sum slice_ms /. (float_of_int jobs *. sum (List.map snd passes)));
          m "pool.queue_wait_ms_p50" "ms"
            (Stats.median (List.map (fun (_, enq, start, _) -> start -. enq) !slices)) ]
    end
  in
  let first, _ = List.hd passes in
  {
    units;
    failed;
    notes;
    work = float_of_int units;
    wall_ms;
    rss_mb = rss;
    unit_ms = List.map snd passes;
    layers;
    digest =
      [ ("states", first.explored_states); ("schedules", first.covered_schedules);
        ("violations", List.length first.violations) ];
    spans = Spans.spans sp;
  }
