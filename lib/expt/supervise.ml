module Json = Ftc_journal.Json
module Journal = Ftc_journal.Journal
module Engine = Ftc_sim.Engine

type failure_class = Violation | Timed_out | Watchdog_expired | Exception

let class_to_string = function
  | Violation -> "violation"
  | Timed_out -> "timeout"
  | Watchdog_expired -> "watchdog"
  | Exception -> "exception"

let class_of_string = function
  | "violation" -> Some Violation
  | "timeout" -> Some Timed_out
  | "watchdog" -> Some Watchdog_expired
  | "exception" -> Some Exception
  | _ -> None

type failure = { seed : int; class_ : failure_class; detail : string }

type 'a trial = Completed of 'a | Failed of failure | Skipped

type config = {
  jobs : int;
  keep_going : bool;
  journal : string option;
  resume : bool;
  quarantine : string option;
  recorder : Ftc_telemetry.Recorder.t;
  flight : Ftc_telemetry.Flight.t;
  stop : unit -> bool;
}

let default_config =
  {
    jobs = 1;
    keep_going = false;
    journal = None;
    resume = false;
    quarantine = None;
    recorder = Ftc_telemetry.Recorder.disabled;
    flight = Ftc_telemetry.Flight.disabled;
    stop = (fun () -> false);
  }

exception Resume_error of string

let () =
  Printexc.register_printer (function
    | Resume_error msg -> Some ("cannot resume: " ^ msg)
    | _ -> None)

type 'a sweep = {
  trials : (int * 'a trial) list;
  completed : int;
  failed : failure list;
  skipped : int;
  resumed : int;
  quarantined : string option;
}

(* Load a journal for resume, enforcing the spec-hash contract, and
   return its decoded records plus a handle re-opened for append. *)
let load_for_resume ~path ~spec_hash ~decode =
  match Journal.load ~path with
  | Error e -> raise (Resume_error (Printf.sprintf "%s: %s" path e))
  | Ok { header; entries; torn_tail = _ } ->
      if header.Journal.spec_hash <> spec_hash then
        raise
          (Resume_error
             (Printf.sprintf
                "%s was recorded for a different sweep (journal spec %s, current spec %s)" path
                header.Journal.spec_hash spec_hash));
      let decoded =
        List.map
          (fun j ->
            match decode j with
            | Some kv -> kv
            | None ->
                raise
                  (Resume_error
                     (Printf.sprintf "%s: unreadable record %s" path (Json.to_string j))))
          entries
      in
      (decoded, Journal.reopen ~path)

let run config ~spec_hash ~encode ~decode ?(replay_doc = fun _ -> None) ~run_trial ~seeds () =
  let journaled, handle =
    match config.journal with
    | None -> ([], None)
    | Some path when config.resume ->
        let decoded, h = load_for_resume ~path ~spec_hash ~decode in
        (decoded, Some h)
    | Some path -> ([], Some (Journal.create ~path ~spec_hash))
  in
  let cache = Hashtbl.create 64 in
  List.iter (fun (seed, v) -> Hashtbl.replace cache seed v) journaled;
  let to_run = List.filter (fun s -> not (Hashtbl.mem cache s)) seeds in
  let abort = Atomic.make false in
  let journal_lock = Mutex.create () in
  let record seed payload =
    match handle with
    | None -> ()
    | Some h ->
        Mutex.lock journal_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock journal_lock)
          (fun () -> Journal.append h (encode seed payload))
  in
  (* Sweep progress telemetry: per-trial outcome counters and one
     heartbeat event per finished trial (the atomics make the running
     totals race-free across pool workers). Journaled resume hits count
     as already completed. *)
  let recorder = config.recorder in
  let reg = Ftc_telemetry.Recorder.registry recorder in
  let total = List.length seeds in
  let done_count = Atomic.make (total - List.length to_run) in
  let failed_count = Atomic.make 0 in
  let heartbeat outcome =
    if Ftc_telemetry.Recorder.enabled recorder then begin
      (match outcome with
      | Completed _ ->
          Atomic.incr done_count;
          Ftc_telemetry.Registry.incr reg "ftc_sweep_trials_completed_total" 1
      | Failed f ->
          Atomic.incr failed_count;
          Ftc_telemetry.Registry.incr reg "ftc_sweep_trials_failed_total" 1;
          Ftc_telemetry.Registry.incr reg
            ("ftc_sweep_failures_" ^ class_to_string f.class_ ^ "_total")
            1
      | Skipped -> Ftc_telemetry.Registry.incr reg "ftc_sweep_trials_skipped_total" 1);
      Ftc_telemetry.Recorder.emit recorder
        (Ftc_telemetry.Recorder.Heartbeat
           {
             at_ns = Ftc_telemetry.Recorder.now_ns recorder;
             completed = Atomic.get done_count;
             failed = Atomic.get failed_count;
             total;
           })
    end
  in
  let record_flight seed outcome =
    Ftc_telemetry.Flight.record config.flight
      (Ftc_telemetry.Flight.Trial
         {
           seed;
           class_ =
             (match outcome with
             | Completed _ -> "completed"
             | Failed f -> class_to_string f.class_
             | Skipped -> "skipped");
         })
  in
  let one seed =
    if Atomic.get abort || config.stop () then begin
      heartbeat Skipped;
      record_flight seed Skipped;
      (seed, Skipped)
    end
    else
      let outcome =
        match run_trial seed with
        | Ok payload ->
            record seed payload;
            Completed payload
        | Error (class_, detail) -> Failed { seed; class_; detail }
        | exception e ->
            let detail =
              Printf.sprintf "%s%s" (Printexc.to_string e)
                (match Printexc.get_backtrace () with "" -> "" | bt -> "\n" ^ bt)
            in
            Failed { seed; class_ = Exception; detail }
      in
      (match outcome with
      | Failed _ when not config.keep_going -> Atomic.set abort true
      | _ -> ());
      heartbeat outcome;
      record_flight seed outcome;
      (seed, outcome)
  in
  let fresh =
    Ftc_parallel.Pool.run_map
      ?monitor:(Ftc_telemetry.Instrument.pool_monitor recorder "sweep")
      ~jobs:config.jobs one to_run
  in
  (match handle with None -> () | Some h -> Journal.close h);
  let fresh_tbl = Hashtbl.create 64 in
  List.iter (fun (seed, t) -> Hashtbl.replace fresh_tbl seed t) fresh;
  let trials =
    List.map
      (fun seed ->
        match Hashtbl.find_opt cache seed with
        | Some payload -> (seed, Completed payload)
        | None -> (seed, Hashtbl.find fresh_tbl seed))
      seeds
  in
  let completed = ref 0 and skipped = ref 0 and resumed = ref 0 in
  let failed = ref [] in
  List.iter
    (fun (seed, t) ->
      match t with
      | Completed _ ->
          incr completed;
          if Hashtbl.mem cache seed then incr resumed
      | Failed f -> failed := f :: !failed
      | Skipped -> incr skipped)
    trials;
  let failed = List.rev !failed in
  let quarantined =
    match (config.quarantine, failed) with
    | None, _ | _, [] -> None
    | Some path, _ :: _ ->
        let line f =
          let base =
            [
              ("seed", Json.Int f.seed);
              ("class", Json.String (class_to_string f.class_));
              ("detail", Json.String f.detail);
            ]
          in
          let fields =
            match replay_doc f.seed with
            | None -> base
            | Some doc -> base @ [ ("replay", Json.String doc) ]
          in
          Json.to_string (Json.Obj fields) ^ "\n"
        in
        Journal.write_atomic ~path (String.concat "" (List.map line failed));
        Some path
  in
  {
    trials;
    completed = !completed;
    failed;
    skipped = !skipped;
    resumed = !resumed;
    quarantined;
  }

let exit_code ~ok sweep =
  if sweep.failed = [] && sweep.skipped = 0 then if ok then 0 else 1
  else if sweep.completed > 0 then 3
  else 1

let classify_outcome (o : Runner.outcome) =
  match Runner.violations o with
  | _ :: _ as vs ->
      Some
        ( Violation,
          String.concat "; " (List.map Ftc_sim.Violation.to_string vs) )
  | [] ->
      if o.result.Engine.watchdog_expired then
        Some
          ( Watchdog_expired,
            Printf.sprintf "trial exceeded its wall-clock budget after %d rounds"
              o.result.Engine.rounds_used )
      else if o.result.Engine.timed_out then
        Some
          ( Timed_out,
            Printf.sprintf "round budget exhausted with messages still in flight (%d rounds)"
              o.result.Engine.rounds_used )
      else None

(* ---- the expt-driver shared journal ---- *)

type shared = {
  handle : Journal.t;
  lock : Mutex.t;
  cache : (string * int, Runner.trial_stats) Hashtbl.t;
}

let encode_stats ~key ~seed (s : Runner.trial_stats) =
  Json.Obj
    [
      ("key", Json.String key);
      ("seed", Json.Int seed);
      ("success", Json.Bool s.Runner.success);
      ("msgs", Json.Int s.Runner.msgs);
      ("bits", Json.Int s.Runner.bits);
      ("rounds", Json.Int s.Runner.rounds);
    ]

let decode_stats j =
  let ( let* ) = Option.bind in
  let* key = Option.bind (Json.member "key" j) Json.to_str in
  let* seed = Option.bind (Json.member "seed" j) Json.to_int in
  let* success = Option.bind (Json.member "success" j) Json.to_bool in
  let* msgs = Option.bind (Json.member "msgs" j) Json.to_int in
  let* bits = Option.bind (Json.member "bits" j) Json.to_int in
  let* rounds = Option.bind (Json.member "rounds" j) Json.to_int in
  Some ((key, seed), { Runner.success; msgs; bits; rounds })

let open_shared ~path ~resume ~spec_hash =
  let cache = Hashtbl.create 256 in
  let handle =
    if resume then begin
      let decoded, h = load_for_resume ~path ~spec_hash ~decode:decode_stats in
      List.iter (fun (k, v) -> Hashtbl.replace cache k v) decoded;
      h
    end
    else Journal.create ~path ~spec_hash
  in
  { handle; lock = Mutex.create (); cache }

let close_shared sh = Journal.close sh.handle

let run_many_journaled ~jobs ~journal ~key ~ok spec ~seeds =
  match journal with
  | None ->
      List.map (Runner.stats_of ~ok) (Runner.run_many_par ~jobs spec ~seeds)
  | Some sh ->
      let cached s = Hashtbl.find_opt sh.cache (key, s) in
      let to_run = List.filter (fun s -> cached s = None) seeds in
      let outcomes = Runner.run_many_par_raw ~jobs spec ~seeds:to_run in
      (* Journal every clean trial of the batch first, so a violation —
         which aborts the whole expt run — loses none of the batch's
         completed work; then raise for the first violating seed in seed
         order, exactly as [run_many_par] would have. *)
      let stats_tbl = Hashtbl.create 64 in
      List.iter
        (fun (o : Runner.outcome) ->
          if Runner.violations o = [] then begin
            let s = Runner.stats_of ~ok o in
            Mutex.lock sh.lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock sh.lock)
              (fun () -> Journal.append sh.handle (encode_stats ~key ~seed:o.Runner.seed s));
            Hashtbl.replace sh.cache (key, o.Runner.seed) s;
            Hashtbl.replace stats_tbl o.Runner.seed s
          end)
        outcomes;
      List.iter (Runner.ensure_clean spec) outcomes;
      List.map
        (fun s ->
          match cached s with
          | Some st -> st
          | None -> Hashtbl.find stats_tbl s)
        seeds
