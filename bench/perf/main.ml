(* The layered benchmark. See README.md in this directory.

   main.exe [--workload a,b] [--seed N] [--seconds S] [--trace 0|1] [--record]

   Each workload runs in child processes of this executable, started
   with OCAMLRUNPARAM removed so no workload inherits another's GC
   settings. Untraced, two children only set the workload up and a
   third sets it up and measures it for S seconds; setup_s is the median
   of the three set-up times. Traced, the workload runs once untraced
   and once traced for S seconds each, and the per-unit differences
   between the two are the tracing overhead. Every metric is printed as
   "workload metric value unit"; results/bench.json (and, traced,
   results/bench-trace.json) get the details; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}. Exit 1 on any
   correctness failure. *)

open Common

type workload = { id : string; why : string; run : ctx -> outcome }

let workloads =
  [
    {
      id = "serve-election";
      why =
        "long instances at ~75% of 2-worker capacity: engine, trace, oracles and worker contention";
      run = Serve_wl.run Serve_wl.election;
    };
    {
      id = "serve-agreement";
      why = "short instances, closed loop: framing, admission, select loop and replies";
      run = Serve_wl.run Serve_wl.agreement;
    };
    {
      id = "sweep-election";
      why = "closure engine on a 2-domain pool: no trace, oracle or sockets";
      run = Sweep_wl.run;
    };
    {
      id = "fast-election-1e5";
      why = "struct-of-arrays engine at n = 10^5, one domain";
      run = Fast_wl.run;
    };
    {
      id = "verify-agreement-n4";
      why = "587,501 tiny traced cases: fixed per-case costs";
      run = Verify_wl.run;
    };
  ]

(* Digests of the first units of a --seed 1 run, pinned: the message,
   bit and round totals the paper bounds. A speed-up must compute the
   same executions. *)
let expect =
  [
    ( "serve-election",
      [ ("units", 20); ("msgs", 2_246_513); ("bits", 65_939_214); ("rounds", 8_052); ("ok", 19) ] );
    ( "serve-agreement",
      [ ("units", 200); ("msgs", 1_122_623); ("bits", 5_613_115); ("rounds", 600); ("ok", 200) ] );
    ( "sweep-election",
      [ ("units", 16); ("msgs", 3_689_733); ("bits", 140_704_346); ("rounds", 2_424); ("ok", 16) ]
    );
    ( "fast-election-1e5",
      [ ("units", 1); ("msgs", 3_892_507); ("bits", 322_930_019); ("rounds", 293); ("ok", 1) ] );
    ("verify-agreement-n4", [ ("states", 587_501); ("schedules", 9_365_008); ("violations", 0) ]);
  ]

(* The per-layer metrics every workload reports in its traced run (the
   contract's [per_layer] list); workload-specific layer metrics are
   printed and written to results/bench.json besides. *)
let per_layer =
  [ "proc.cpu_util"; "proc.cpu_ms_per_unit"; "engine.run_ms_p50"; "engine.round_us_p50";
    "engine.ns_per_node_round"; "engine.msgs_per_unit"; "engine.rounds_per_unit";
    "oracle.check_ms_p50"; "gc.minor_words_per_unit"; "gc.minor_per_unit"; "gc.major_per_unit";
    "gc.minor_heap_words"; "trace.overhead_pct" ]

(* Set-ups per untraced run, the measuring one included. *)
let setups = 3

(* Each workload's children are stopped this many seconds after its
   first one started. *)
let deadline_s = 170

(* -- the child side -- *)

let child name ~setup_only ~seed ~seconds ~trace =
  let w = List.find (fun w -> w.id = name) workloads in
  (* Stopped by the parent: exiting runs the at_exit hooks, which stop
     any server this child started. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  let ready () =
    print_endline "ready";
    if setup_only then exit 0
  in
  let o = w.run { seed; seconds; trace; ready } in
  print_endline (Json.to_string (outcome_to_json o))

(* -- the parent side -- *)

exception Child_failed of string

(* The running child's pid. Each child leads its own process group,
   which also holds any server it starts. *)
let current = ref None

(* Stop the running child's process group and wait until it is gone:
   SIGTERM, then SIGKILL after a grace period. *)
let stop_current () =
  Option.iter
    (fun pid ->
      let signal s = try Unix.kill (-pid) s with Unix.Unix_error _ -> () in
      signal Sys.sigterm;
      let t0 = now_ms () in
      while fst (Unix.waitpid [ Unix.WNOHANG ] pid) = 0 && now_ms () -. t0 < 5000. do
        Unix.sleepf 0.05
      done;
      signal Sys.sigkill;
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      (* The group's other members, reparented, end shortly after. *)
      let alive () = try Unix.kill (-pid) 0; true with Unix.Unix_error _ -> false in
      while alive () && now_ms () -. t0 < 10_000. do
        Unix.sleepf 0.05
      done;
      current := None)
    !current

(* Run one child; returns its set-up time (spawn → "ready") in seconds
   and, unless it was set-up only, its outcome. *)
let spawn w ~setup_only ~seed ~seconds ~trace =
  let args =
    [ Sys.executable_name; "--child"; w.id; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if setup_only then [ "--setup-only" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_ms () in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          ignore (Unix.setsid ());
          Unix.dup2 wr Unix.stdout;
          Unix.execve Sys.executable_name (Array.of_list args) (child_env ())
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  current := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let ready =
    match In_channel.input_line ic with Some "ready" -> Some (now_ms () -. t0) | _ -> None
  in
  let result =
    if setup_only then None
    else
      Option.bind (In_channel.input_line ic) (fun line ->
          Option.bind (Result.to_option (Json.of_string line)) outcome_of_json)
  in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  current := None;
  match (status, ready) with
  | Unix.WEXITED 0, Some ms when setup_only || result <> None -> (ms /. 1000., result)
  | Unix.WEXITED c, _ -> raise (Child_failed (Printf.sprintf "%s: child exited with code %d" w.id c))
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      raise (Child_failed (Printf.sprintf "%s: child killed by signal %d" w.id s))

type result = {
  w : workload;
  units : int;
  failed : int;
  digest : (string * int) list;
  spans : Spans.span list;
  metrics : metric list;  (** What this invocation reports for the workload. *)
  extra : metric list;  (** Workload-specific layer metrics (traced). *)
  notes : string list;
}

let find name (ms : metric list) = List.find (fun (x : metric) -> x.name = name) ms

(* A run too short to reach the digest's units has no digest to check. *)
let check_digest w (o : outcome) ~seed =
  match List.assoc_opt w.id expect with
  | Some want when seed = 1 && o.digest <> [] && o.digest <> want ->
      [ Printf.sprintf "digest %s differs from the pinned %s"
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.digest))
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) want)) ]
  | _ -> []

(* The end-to-end metrics of the measuring child. *)
let end_to_end (o : outcome) =
  [ m "throughput" "1/s" (o.work *. 1000. /. o.wall_ms);
    m "latency_p50_ms" "ms" (Stats.quantile o.unit_ms 0.5);
    m "latency_p90_ms" "ms" (Stats.quantile o.unit_ms 0.9);
    m "peak_rss_mb" "MB" o.rss_mb ]

let measure w ~seed ~seconds ~trace =
  if not trace then begin
    let others =
      List.init (setups - 1) (fun _ -> fst (spawn w ~setup_only:true ~seed ~seconds ~trace))
    in
    let setup, o = spawn w ~setup_only:false ~seed ~seconds ~trace in
    let o = Option.get o in
    {
      w;
      units = o.units;
      failed = o.failed;
      digest = o.digest;
      spans = [];
      metrics = end_to_end o @ [ m "setup_s" "s" (Stats.median (setup :: others)) ];
      extra = [ m "latency.samples" "count" (float_of_int (List.length o.unit_ms)) ];
      notes = o.notes @ check_digest w o ~seed;
    }
  end
  else begin
    let plain = Option.get (snd (spawn w ~setup_only:false ~seed ~seconds ~trace:false)) in
    let o = Option.get (snd (spawn w ~setup_only:false ~seed ~seconds ~trace:true)) in
    (* Unit i has the same seed in both runs, so the per-unit pairs
       compare the same work with tracing off and on. *)
    let rec zip = function x :: xs, y :: ys -> (x, y) :: zip (xs, ys) | _ -> [] in
    let overhead, spread = Stats.paired_diff_pct (zip (plain.unit_ms, o.unit_ms)) in
    let layers =
      m "trace.overhead_pct" "%" overhead :: m "trace.overhead_iqr_pct" "%" spread :: o.layers
    in
    {
      w;
      units = plain.units + o.units;
      failed = plain.failed + o.failed;
      digest = o.digest;
      spans = o.spans;
      metrics = List.map (fun name -> find name layers) per_layer;
      extra = List.filter (fun x -> not (List.mem x.name per_layer)) layers;
      notes = plain.notes @ o.notes @ check_digest w o ~seed;
    }
  end

(* -- reporting -- *)

let metric_obj ms =
  Json.Obj
    (List.map
       (fun x ->
         (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
       ms)

let write_json path j =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc (Json.to_string j ^ "\n"));
  Sys.rename tmp path

let report_json ~seed ~seconds ~trace results =
  Json.Obj
    [ ("seed", Json.Int seed); ("seconds", Json.Float seconds); ("trace", Json.Bool trace);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ( "workloads",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 ([ ("name", Json.String r.w.id); ("why", Json.String r.w.why);
                    ("correct", Json.Bool (r.notes = [])); ("units", Json.Int r.units);
                    ("failed", Json.Int r.failed);
                    ("notes", Json.List (List.map (fun s -> Json.String s) r.notes));
                    ("digest", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.digest));
                    ("metrics", metric_obj (r.metrics @ r.extra)) ]
                 @
                 if trace then
                   [ ( "self_time",
                       Json.List
                         (List.map
                            (fun (row : Spans.row) ->
                              Json.Obj
                                [ ("layer", Json.String row.layer); ("count", Json.Int row.count);
                                  ("total_ms", Json.Float row.total_ms);
                                  ("self_ms", Json.Float row.self_ms);
                                  ("self_p50_ms", Json.Float row.self_p50_ms) ])
                            (Spans.self_table r.spans)) ) ]
                 else []))
             results) ) ]

let print_self_table r =
  let rows = Spans.self_table r.spans in
  let total = sum (List.map (fun (row : Spans.row) -> row.self_ms) rows) in
  Printf.printf "%s self time: %-24s %8s %12s %12s %10s %6s\n" r.w.id "layer" "count" "total_ms"
    "self_ms" "self_p50" "share";
  List.iter
    (fun (row : Spans.row) ->
      Printf.printf "%s self time: %-24s %8d %12.1f %12.1f %10.3f %5.1f%%\n" r.w.id row.layer
        row.count row.total_ms row.self_ms row.self_p50_ms (100. *. row.self_ms /. total))
    rows

let git_rev () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let rev = Option.value (In_channel.input_line ic) ~default:"unknown" in
    ignore (Unix.close_process_in ic);
    rev
  with Unix.Unix_error _ -> "unknown"

(* One line per invocation in bench/perf/history.jsonl: the committed
   trajectory of end-to-end numbers, keyed by git rev and core count. *)
let record ~seed ~seconds results =
  let t = Unix.gmtime (Unix.time ()) in
  let line =
    Json.Obj
      [ ("rev", Json.String (git_rev ())); ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ( "date",
          Json.String
            (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900) (t.tm_mon + 1)
               t.tm_mday t.tm_hour t.tm_min t.tm_sec) );
        ("seed", Json.Int seed); ("seconds", Json.Float seconds);
        ( "workloads",
          Json.Obj
            (List.map
               (fun r ->
                 (r.w.id, Json.Obj (List.map (fun x -> (x.name, Json.Float x.value)) r.metrics)))
               results) ) ]
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644
    "bench/perf/history.jsonl" (fun oc -> output_string oc (Json.to_string line ^ "\n"))

let () =
  let names = ref [] and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let record_history = ref false and child_of = ref "" and setup_only = ref false in
  let add_names s = names := !names @ String.split_on_char ',' s in
  let usage = "main.exe [--workload a,b] [--seed N] [--seconds S] [--trace 0|1] [--record]" in
  let specs =
    [ ("--workload", Arg.String add_names, "NAMES comma-separated workloads (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload (default 10)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> trace := false
          | 1 -> trace := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 1 = the traced run: per-layer metrics" );
      ( "--record",
        Arg.Set record_history,
        " append the end-to-end numbers to bench/perf/history.jsonl" );
      ("--child", Arg.Set_string child_of, "NAME (internal) run one workload in this process");
      ("--setup-only", Arg.Set setup_only, " (internal) exit once the child is set up") ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !child_of <> "" then
    child !child_of ~setup_only:!setup_only ~seed:!seed ~seconds:!seconds ~trace:!trace
  else begin
    if !seconds < 1. then (prerr_endline "--seconds must be at least 1"; exit 2);
    let selected =
      match !names with
      | [] -> workloads
      | ns ->
          List.map
            (fun n ->
              match List.find_opt (fun w -> w.id = n) workloads with
              | Some w -> w
              | None ->
                  Printf.eprintf "unknown workload %s (known: %s)\n" n
                    (String.concat ", " (List.map (fun w -> w.id) workloads));
                  exit 2)
            ns
    in
    if !record_history && !trace then (prerr_endline "--record takes untraced runs only"; exit 2);
    if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
    let give_up msg =
      Sys.Signal_handle
        (fun _ ->
          prerr_endline msg;
          stop_current ();
          exit 3)
    in
    Sys.set_signal Sys.sigalrm (give_up "timed out");
    Sys.set_signal Sys.sigint (give_up "interrupted");
    Sys.set_signal Sys.sigterm (give_up "terminated");
    let results =
      try
        List.map
          (fun w ->
            ignore (Unix.alarm deadline_s);
            measure w ~seed:!seed ~seconds:!seconds ~trace:!trace)
          selected
      with Child_failed msg ->
        prerr_endline msg;
        exit 1
    in
    List.iter
      (fun r ->
        List.iter
          (fun x -> Printf.printf "%s %s %.6g %s\n" r.w.id x.name x.value x.unit_)
          (r.metrics @ r.extra);
        Printf.printf "%s digest %s\n" r.w.id
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.digest));
        List.iter (fun s -> Printf.printf "%s FAILED %s\n" r.w.id s) r.notes;
        if !trace then print_self_table r)
      results;
    write_json "results/bench.json"
      (report_json ~seed:!seed ~seconds:!seconds ~trace:!trace results);
    if !trace then
      write_json "results/bench-trace.json"
        (Spans.chrome (List.map (fun r -> (r.w.id, r.spans)) results));
    if !record_history then record ~seed:!seed ~seconds:!seconds results;
    let correct = List.for_all (fun r -> r.notes = []) results in
    let single = List.length results = 1 in
    let metrics =
      List.concat_map
        (fun r ->
          List.map
            (fun x -> if single then x else { x with name = r.w.id ^ "." ^ x.name })
            r.metrics)
        results
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool correct);
              ("attempted", Json.Int (List.fold_left (fun a r -> a + r.units) 0 results));
              ("failed", Json.Int (List.fold_left (fun a r -> a + r.failed) 0 results));
              ("metrics", metric_obj metrics) ]));
    exit (if correct then 0 else 1)
  end
