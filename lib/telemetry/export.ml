module Json = Ftc_journal.Json

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto-loadable).                        *)

let us_of_ns ns = Int64.to_int (Int64.div ns 1_000L)

(* Perfetto collapses 0-duration complete events to invisibility; clamp
   to 1us so every span renders. *)
let dur_us_of_ns ns = max 1 (us_of_ns ns)

let chrome_trace entries =
  (* One tid per track, assigned in first-appearance order over the
     timestamp-sorted events so the numbering is stable for a given log. *)
  let tids = Hashtbl.create 16 in
  let next_tid = ref 1 in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some tid -> tid
    | None ->
        let tid = !next_tid in
        incr next_tid;
        Hashtbl.replace tids track tid;
        tid
  in
  let start_of (e : Event.entry) =
    match e.ev with
    | Span s -> s.Span.start_ns
    | Trial { start_ns; _ } | Job { start_ns; _ } -> start_ns
    | Heartbeat { at_ns; _ } -> at_ns
    | _ -> e.at_ns
  in
  let entries =
    List.stable_sort (fun a b -> Int64.compare (start_of a) (start_of b)) entries
  in
  let complete ~name ~cat ~tid ~ts_ns ~dur_ns args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String cat);
        ("ph", Json.String "X");
        ("ts", Json.Int (us_of_ns ts_ns));
        ("dur", Json.Int (dur_us_of_ns dur_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let body =
    List.filter_map
      (fun (e : Event.entry) ->
        match e.ev with
        | Span s ->
            Some
              (complete ~name:s.Span.phase ~cat:"phase" ~tid:(tid_of s.Span.track)
                 ~ts_ns:s.Span.start_ns ~dur_ns:s.Span.dur_ns
                 [
                   ("protocol", Json.String s.Span.protocol);
                   ("rounds",
                    Json.String (Printf.sprintf "[%d,%d)" s.Span.start_round s.Span.end_round));
                   ("msgs", Json.Int s.Span.msgs);
                   ("bits", Json.Int s.Span.bits);
                 ])
        | Trial { track; protocol; seed; ok; msgs; bits; rounds; start_ns; dur_ns } ->
            Some
              (complete ~name:protocol ~cat:"trial" ~tid:(tid_of track) ~ts_ns:start_ns ~dur_ns
                 [
                   ("seed", Json.Int seed);
                   ("ok", Json.Bool ok);
                   ("msgs", Json.Int msgs);
                   ("bits", Json.Int bits);
                   ("rounds", Json.Int rounds);
                 ])
        | Job { pool; worker; start_ns; dur_ns; wait_ns } ->
            Some
              (complete ~name:"job" ~cat:"pool"
                 ~tid:(tid_of (Printf.sprintf "%s-worker-%d" pool worker))
                 ~ts_ns:start_ns ~dur_ns
                 [ ("wait_us", Json.Int (us_of_ns wait_ns)) ])
        | Heartbeat { at_ns; completed; failed; total; _ } ->
            Some
              (Json.Obj
                 [
                   ("name", Json.String "sweep-progress");
                   ("ph", Json.String "C");
                   ("ts", Json.Int (us_of_ns at_ns));
                   ("pid", Json.Int 1);
                   ("args",
                    Json.Obj
                      [
                        ("completed", Json.Int completed);
                        ("failed", Json.Int failed);
                        ("remaining", Json.Int (max 0 (total - completed - failed)));
                      ]);
                 ])
        (* Service events stay in events.jsonl, where ftc blackbox reads them. *)
        | _ -> None)
      entries
  in
  (* Thread-name metadata gives each trial/worker its own labelled
     Perfetto track. *)
  let names =
    Hashtbl.fold (fun track tid acc -> (tid, track) :: acc) tids []
    |> List.sort compare
    |> List.map (fun (tid, track) ->
           Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
               ("args", Json.Obj [ ("name", Json.String track) ]);
             ])
  in
  Json.Obj
    [
      ("traceEvents", Json.List (names @ body));
      ("displayTimeUnit", Json.String "ms");
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)

(* Metric names arrive as dotted paths; Prometheus wants [a-zA-Z0-9_:]. *)
let prom_name name =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let prometheus metrics =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      let n = prom_name name in
      match value with
      | Registry.Counter v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v)
      | Registry.Gauge v ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %d\n" n n v)
      | Registry.Hist h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" n);
          let cumulative = ref 0 in
          Array.iteri
            (fun i c ->
              cumulative := !cumulative + c;
              (* Only emit boundaries up to the populated range to keep
                 the snapshot readable; the +Inf bucket always closes. *)
              if !cumulative > 0 || i = 0 then
                if i < Hist.n_buckets - 1 then
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n
                       (Hist.upper_bound i - 1)
                       !cumulative))
            (Hist.buckets h);
          Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n (Hist.count h));
          Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n (Hist.sum h));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n (Hist.count h)))
    metrics;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Directory layout: events.jsonl + trace.json + metrics.prom.         *)

let events_file = "events.jsonl"
let trace_file = "trace.json"
let prom_file = "metrics.prom"

let mkdir_p dir =
  let rec mk d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let write_dir ~dir (f : Event.file) =
  mkdir_p dir;
  let write name content = Ftc_journal.Journal.write_atomic ~path:(Filename.concat dir name) content in
  Event.write ~path:(Filename.concat dir events_file) f;
  write trace_file (Json.to_string (chrome_trace f.entries));
  write prom_file (prometheus f.metrics)

(* ------------------------------------------------------------------ *)
(* Summary: per-(protocol, phase) cost table from the span events.     *)

type phase_row = {
  row_protocol : string;
  row_phase : string;
  row_first_round : int;  (* calendar position, for ordering *)
  mutable row_spans : int;
  mutable row_rounds : int;
  mutable row_msgs : int;
  mutable row_bits : int;
  mutable row_ns : int64;
}

let phase_rows entries =
  let tbl : (string * string, phase_row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (e : Event.entry) ->
      match e.ev with
      | Span s ->
          let key = (s.Span.protocol, s.Span.phase) in
          let row =
            match Hashtbl.find_opt tbl key with
            | Some r -> r
            | None ->
                let r =
                  {
                    row_protocol = s.Span.protocol;
                    row_phase = s.Span.phase;
                    row_first_round = s.Span.start_round;
                    row_spans = 0;
                    row_rounds = 0;
                    row_msgs = 0;
                    row_bits = 0;
                    row_ns = 0L;
                  }
                in
                Hashtbl.replace tbl key r;
                r
          in
          row.row_spans <- row.row_spans + 1;
          row.row_rounds <- row.row_rounds + (s.Span.end_round - s.Span.start_round);
          row.row_msgs <- row.row_msgs + s.Span.msgs;
          row.row_bits <- row.row_bits + s.Span.bits;
          row.row_ns <- Int64.add row.row_ns s.Span.dur_ns
      | _ -> ())
    entries;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare a.row_protocol b.row_protocol with
         | 0 -> (
             match compare a.row_first_round b.row_first_round with
             | 0 -> compare a.row_phase b.row_phase
             | c -> c)
         | c -> c)

let summary (f : Event.file) =
  let buf = Buffer.create 1024 in
  let rows = phase_rows f.entries in
  let trials, failed =
    List.fold_left
      (fun (t, n) (e : Event.entry) ->
        match e.ev with
        | Trial { ok; _ } -> (t + 1, if ok then n else n + 1)
        | _ -> (t, n))
      (0, 0) f.entries
  in
  Buffer.add_string buf (Printf.sprintf "trials: %d (%d failed)\n" trials failed);
  if f.dropped_ > 0 then
    Buffer.add_string buf
      (Printf.sprintf "window: the last %d of %d events (%d dropped)\n" (List.length f.entries)
         f.recorded f.dropped_);
  if rows = [] then Buffer.add_string buf "no phase spans recorded\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-32s %-22s %8s %8s %12s %14s %10s\n" "protocol" "phase" "spans"
         "rounds" "msgs" "bits" "wall-ms");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%-32s %-22s %8d %8d %12d %14d %10.2f\n" r.row_protocol r.row_phase
             r.row_spans r.row_rounds r.row_msgs r.row_bits
             (Int64.to_float r.row_ns /. 1e6)))
      rows
  end;
  (match
     List.filter_map
       (fun (name, v) -> match v with Registry.Hist h -> Some (name, h) | _ -> None)
       f.metrics
   with
  | [] -> ()
  | hists ->
      Buffer.add_string buf
        (Printf.sprintf "\n%-40s %8s %12s %12s %12s\n" "histogram" "count" "mean" "p90" "max");
      List.iter
        (fun (name, h) ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s %8d %12.1f %12d %12d\n" name (Hist.count h) (Hist.mean h)
               (Hist.quantile h 0.90) (Hist.max_value h)))
        hists);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Validation of exported artifacts (used by `ftc trace summary`).     *)

let validate_trace_json content =
  match Json.of_string content with
  | Error e -> Error ("trace.json: " ^ e)
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          let ok_event e =
            match (Json.member "ph" e, Json.member "ts" e) with
            | Some (Json.String ph), Some (Json.Int _) ->
                (* complete events must carry a duration *)
                ph <> "X" || Json.member "dur" e <> None
            | Some (Json.String "M"), None -> true
            | _ -> false
          in
          let bad = List.filter (fun e -> not (ok_event e)) evs in
          if bad <> [] then
            Error (Printf.sprintf "trace.json: %d events missing ph/ts/dur" (List.length bad))
          else Ok (List.length evs)
      | _ -> Error "trace.json: no traceEvents array")

let validate_prometheus content =
  let lines = String.split_on_char '\n' content |> List.filter (fun l -> l <> "") in
  let samples =
    List.filter (fun l -> String.length l > 0 && l.[0] <> '#') lines
  in
  let well_formed l =
    match String.rindex_opt l ' ' with
    | None -> false
    | Some i ->
        let v = String.sub l (i + 1) (String.length l - i - 1) in
        (match int_of_string_opt v with Some _ -> true | None -> float_of_string_opt v <> None)
  in
  match List.filter (fun l -> not (well_formed l)) samples with
  | [] -> if samples = [] then Error "metrics.prom: no samples" else Ok (List.length samples)
  | bad -> Error (Printf.sprintf "metrics.prom: %d malformed lines" (List.length bad))
