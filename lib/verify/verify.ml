module Case = Ftc_chaos.Case
module Oracle = Ftc_chaos.Oracle
module Replay = Ftc_chaos.Replay
module Journal = Ftc_journal.Journal
module Json = Ftc_journal.Json
module Recorder = Ftc_telemetry.Recorder
module Registry = Ftc_telemetry.Registry
module Pool = Ftc_parallel.Pool

(* Chunking is part of the determinism story: states are claimed,
   journaled and merged in fixed-size chunks, independent of [--jobs],
   so the exploration order, the journal and the report never depend on
   the worker count. *)
let chunk_states = 512

type config = {
  protocol : string;
  n : int;
  alpha : float;
  horizon : int;
  keep_prefix_max : int;
  grid : bool;
  seeds_per_state : int;
  base_seed : int;
  reduction : bool;
  problem_oracles : bool;
  max_states : int option;
  keep_going : bool;
  jobs : int;
}

let default_config ~protocol =
  {
    protocol;
    n = 4;
    alpha = 0.5;
    horizon = 0;
    keep_prefix_max = 2;
    grid = false;
    seeds_per_state = 1;
    base_seed = 1;
    reduction = true;
    problem_oracles = true;
    max_states = None;
    keep_going = false;
    jobs = 1;
  }

type violation = {
  index : int;
  state : string;
  seed_index : int;
  case : Case.t;
  oracles : string list;
  details : string list;
}

type report = {
  config : config;
  horizon : int;
  rules : int;
  envs : int;
  total_states : int;
  total_schedules : int;
  planned_states : int;
  explored_states : int;
  covered_schedules : int;
  violations : violation list;
  resumed_states : int;
  complete : bool;
}

let ( let* ) = Result.bind
let accounting = [ "model"; "congest"; "termination"; "trace-metrics" ]

let space_of_config cfg =
  Space.make ~keep_prefix_max:cfg.keep_prefix_max ~grid:cfg.grid ~horizon:cfg.horizon
    ~protocol:cfg.protocol ~n:cfg.n ~alpha:cfg.alpha ()

(* The canonical spec description behind the journal's hash: resuming
   against a journal written under any other configuration is refused. *)
let spec_description cfg ~horizon =
  Printf.sprintf
    "ftc-verify 1 protocol=%s n=%d alpha=%.17g horizon=%d keep-prefix-max=%d grid=%b \
     seeds=%d base-seed=%d reduction=%b problem-oracles=%b max-states=%s keep-going=%b \
     chunk=%d"
    cfg.protocol cfg.n cfg.alpha horizon cfg.keep_prefix_max cfg.grid cfg.seeds_per_state
    cfg.base_seed cfg.reduction cfg.problem_oracles
    (match cfg.max_states with None -> "none" | Some m -> string_of_int m)
    cfg.keep_going chunk_states

(* Judge one state: try its seeds in order, return the first failing
   one. Runs on every worker — everything it touches is immutable. *)
let eval space cfg state =
  let rec go si =
    if si >= cfg.seeds_per_state then None
    else
      let case = Space.to_case space ~base_seed:cfg.base_seed ~seed_index:si state in
      match Case.run case with
      | Error e -> Some (si, [ "case" ], [ "case: " ^ Case.error_to_string e ])
      | Ok (_result, findings) ->
          let findings =
            if cfg.problem_oracles then findings
            else
              List.filter
                (fun (f : Oracle.finding) -> List.mem f.oracle accounting)
                findings
          in
          if findings = [] then go (si + 1)
          else
            let ids =
              List.fold_left
                (fun acc (f : Oracle.finding) ->
                  if List.mem f.oracle acc then acc else acc @ [ f.oracle ])
                [] findings
            in
            let details =
              List.map (fun (f : Oracle.finding) -> f.oracle ^ ": " ^ f.detail) findings
            in
            Some (si, ids, details)
  in
  go 0

(* --- journal codec ---------------------------------------------------- *)

let violation_to_json v =
  Json.Obj
    [
      ("index", Json.Int v.index);
      ("seed_index", Json.Int v.seed_index);
      ("state", Json.String v.state);
      ("oracles", Json.List (List.map (fun s -> Json.String s) v.oracles));
      ("details", Json.List (List.map (fun s -> Json.String s) v.details));
      ("replay", Json.String (Replay.to_string ~expect:v.oracles v.case));
    ]

let strings_of_json = function
  | Json.List xs ->
      let ss = List.filter_map Json.to_str xs in
      if List.length ss = List.length xs then Some ss else None
  | _ -> None

let violation_of_json j =
  match
    ( Option.bind (Json.member "index" j) Json.to_int,
      Option.bind (Json.member "seed_index" j) Json.to_int,
      Option.bind (Json.member "state" j) Json.to_str,
      Option.bind (Json.member "oracles" j) strings_of_json,
      Option.bind (Json.member "details" j) strings_of_json,
      Option.bind (Json.member "replay" j) Json.to_str )
  with
  | Some index, Some seed_index, Some state, Some oracles, Some details, Some replay -> (
      match Replay.of_string replay with
      | Ok (case, _expect) -> Some { index; state; seed_index; case; oracles; details }
      | Error _ -> None)
  | _ -> None

let chunk_record ~chunk ~explored ~orbits viols =
  Json.Obj
    [
      ("chunk", Json.Int chunk);
      ("explored", Json.Int explored);
      ("orbits", Json.Int orbits);
      ("violations", Json.List (List.map violation_to_json viols));
    ]

let chunk_of_json j =
  match
    ( Option.bind (Json.member "chunk" j) Json.to_int,
      Option.bind (Json.member "explored" j) Json.to_int,
      Option.bind (Json.member "orbits" j) Json.to_int,
      Json.member "violations" j )
  with
  | Some chunk, Some explored, Some orbits, Some (Json.List vs) ->
      let viols = List.map violation_of_json vs in
      if List.exists Option.is_none viols then None
      else Some (chunk, explored, orbits, List.filter_map Fun.id viols)
  | _ -> None

(* Load a journal for resume: spec hash must match, chunk ids must be
   the consecutive prefix 0..k-1. Returns (records, states, orbit sum,
   violations in BFS order). *)
let load_journal ~path ~spec =
  let* loaded = Journal.load ~path in
  let header = loaded.Journal.header in
  let* () =
    if header.Journal.spec_hash <> spec then
      Error
        "journal spec mismatch: the journal was written by a different verify \
         configuration (refusing to mix explorations)"
    else Ok ()
  in
  let rec go k states orbits viols = function
    | [] -> Ok (k, states, orbits, List.rev viols)
    | e :: rest -> (
        match chunk_of_json e with
        | Some (chunk, explored, chunk_orbits, chunk_viols) when chunk = k ->
            go (k + 1) (states + explored) (orbits + chunk_orbits)
              (List.rev_append chunk_viols viols)
            rest
        | Some _ -> Error "corrupt verify journal: chunk records out of sequence"
        | None -> Error "corrupt verify journal: malformed chunk record")
  in
  go 0 0 0 [] loaded.Journal.entries

(* --- exploration ------------------------------------------------------ *)

(* What one chunk found: states explored, orbits they cover, and its
   violations in BFS order; [hit] = cut at a violation. *)
type chunk = { explored : int; orbits : int; viols : violation list; hit : bool }

(* Judge states [first, last) of [seq], which starts at state [first].
   Without --keep-going the chunk is cut at its first violation, so the
   counterexample is the BFS-minimal one and later states count as never
   explored. [abandon] is polled between states. Returns the chunk and
   the sequence after its last explored state. *)
let eval_chunk space cfg ~first ~last ~abandon seq =
  let finish explored orbits viols hit = { explored; orbits; viols = List.rev viols; hit } in
  let rec go i seq orbits viols =
    let explored = i - first in
    if i = last || abandon () then (finish explored orbits viols false, seq)
    else
      match seq () with
      | Seq.Nil -> (finish explored orbits viols false, Seq.empty)
      | Seq.Cons (s, rest) -> (
          let orbits = orbits + if cfg.reduction then Space.orbit_size space s else 1 in
          match eval space cfg s with
          | None -> go (i + 1) rest orbits viols
          | Some (si, ids, details) ->
              let v =
                {
                  index = i;
                  state = Space.encode space s;
                  seed_index = si;
                  case = Space.to_case space ~base_seed:cfg.base_seed ~seed_index:si s;
                  oracles = ids;
                  details;
                }
              in
              if cfg.keep_going then go (i + 1) rest orbits (v :: viols)
              else (finish (explored + 1) orbits (v :: viols) true, rest))
  in
  go first seq 0 []

let run ?(recorder = Recorder.disabled) ?journal ?(resume = false) ?(log = fun _ -> ())
    cfg =
  let* () = if cfg.jobs < 1 then Error "jobs must be >= 1" else Ok () in
  let* () =
    if cfg.seeds_per_state < 1 then Error "seeds-per-state must be >= 1" else Ok ()
  in
  let* () =
    match cfg.max_states with
    | Some m when m < 1 -> Error "max-states must be >= 1"
    | _ -> Ok ()
  in
  let* () =
    if resume && journal = None then Error "--resume requires --journal" else Ok ()
  in
  let* space = space_of_config cfg in
  let horizon = space.Space.horizon in
  let counts = Space.count space in
  let total_states =
    if cfg.reduction then counts.Space.canonical else counts.Space.schedules
  in
  let total_schedules = counts.Space.schedules in
  let planned =
    match cfg.max_states with None -> total_states | Some m -> min m total_states
  in
  let spec = Journal.spec_hash (spec_description cfg ~horizon) in
  let* resumed_records, resumed_states, resumed_orbits, resumed_viols =
    if resume then load_journal ~path:(Option.get journal) ~spec else Ok (0, 0, 0, [])
  in
  if resumed_states > 0 then
    log
      (Printf.sprintf "verify %s: resumed %d state(s) from %d journaled chunk(s)"
         cfg.protocol resumed_states resumed_records);
  let jhandle =
    match journal with
    | None -> None
    | Some path ->
        if resume then Some (Journal.reopen ~path)
        else Some (Journal.create ~path ~spec_hash:spec)
  in
  let reg = Recorder.registry recorder in
  let start_ns = Recorder.now_ns recorder in
  let explored = ref resumed_states in
  let covered = ref resumed_orbits in
  let violations = ref (List.rev resumed_viols) in
  let nviols = ref (List.length resumed_viols) in
  let stop = ref (resumed_viols <> [] && not cfg.keep_going) in
  let chunk_id = ref resumed_records in
  (* Chunk k (counted from the resume point) holds states
     [resumed + 512k, min planned (resumed + 512(k+1))). Workers claim
     chunk ids from [next]; a violation without --keep-going lowers
     [stop_at] to its chunk, and chunks above it are neither claimed nor
     kept. Finished chunks wait in [finished] until worker 0 (the caller)
     merges the in-order prefix, so the journal, the counters and the
     report see chunks in order whatever [--jobs] says. *)
  let nchunks =
    if !stop then 0 else (max 0 (planned - resumed_states) + chunk_states - 1) / chunk_states
  in
  let next = Atomic.make 0 and stop_at = Atomic.make max_int in
  let rec lower k =
    let cur = Atomic.get stop_at in
    if k < cur && not (Atomic.compare_and_set stop_at cur k) then lower k
  in
  let lock = Mutex.create () and finished = Hashtbl.create 16 in
  let merged = ref 0 in
  let merge_chunk c =
    explored := !explored + c.explored;
    covered := !covered + c.orbits;
    violations := List.rev_append c.viols !violations;
    nviols := !nviols + List.length c.viols;
    if c.hit then stop := true;
    Option.iter
      (fun h ->
        Journal.append h
          (chunk_record ~chunk:!chunk_id ~explored:c.explored ~orbits:c.orbits c.viols))
      jhandle;
    incr chunk_id;
    Registry.incr reg "ftc_verify_states" c.explored;
    if c.viols <> [] then Registry.incr reg "ftc_verify_violations" (List.length c.viols);
    Registry.set_gauge reg "ftc_verify_coverage_permille"
      (if total_states = 0 then 1000 else 1000 * !explored / total_states);
    if Recorder.enabled recorder then begin
      let now = Recorder.now_ns recorder in
      let elapsed = Int64.to_float (Int64.sub now start_ns) /. 1e9 in
      if elapsed > 0. then
        Registry.set_gauge reg "ftc_verify_states_per_sec"
          (int_of_float (float_of_int (!explored - resumed_states) /. elapsed));
      Recorder.emit recorder
        (Recorder.Heartbeat
           {
             at_ns = now;
             completed = !explored;
             failed = !nviols;
             total = planned;
             verdict = None;
           })
    end;
    if !chunk_id mod 16 = 0 then
      log
        (Printf.sprintf "verify %s: %d/%d states, %d violation(s)" cfg.protocol !explored
           planned !nviols)
  in
  let rec merge () =
    if not !stop then
      match
        Mutex.protect lock (fun () ->
            let c = Hashtbl.find_opt finished !merged in
            Hashtbl.remove finished !merged;
            c)
      with
      | Some c when c.explored > 0 ->
          merge_chunk c;
          incr merged;
          merge ()
      | Some _ -> stop := true (* the enumeration ran dry before [planned] *)
      | None -> ()
  in
  let monitor =
    if cfg.jobs = 1 then None else Ftc_telemetry.Instrument.pool_monitor recorder "verify"
  in
  let enqueued_ns = match monitor with Some m -> m.Pool.now_ns () | None -> 0L in
  let states = if cfg.reduction then Space.states space else Space.all_states space in
  (* Each worker walks its own forward-only cursor over the persistent
     enumeration, skipping the chunks other workers claimed. *)
  let worker w =
    let rec loop seq pos =
      let k = Atomic.fetch_and_add next 1 in
      if k < nchunks && k <= Atomic.get stop_at then begin
        let started_ns = match monitor with Some m -> m.Pool.now_ns () | None -> 0L in
        let first = resumed_states + (k * chunk_states) in
        let c, rest =
          eval_chunk space cfg ~first
            ~last:(min planned (first + chunk_states))
            ~abandon:(fun () -> k > Atomic.get stop_at)
            (Seq.drop (first - pos) seq)
        in
        (* [stop_at] only falls, so an abandoned (partial) chunk is never
           kept: journaling one would make a resume trust it. *)
        if k <= Atomic.get stop_at then
          Mutex.protect lock (fun () -> Hashtbl.replace finished k c);
        if c.hit then lower k;
        Option.iter
          (fun m ->
            m.Pool.job_done ~worker:w ~enqueued_ns ~started_ns ~finished_ns:(m.Pool.now_ns ()))
          monitor;
        if w = 0 then merge ();
        loop rest (first + c.explored)
      end
    in
    match loop states 0 with
    | () -> ()
    | exception e ->
        (* Stop the other workers too; [run_workers] re-raises this. *)
        let bt = Printexc.get_raw_backtrace () in
        lower (-1);
        Printexc.raise_with_backtrace e bt
  in
  Pool.run_workers ~jobs:(max 1 (min cfg.jobs nchunks)) worker;
  merge ();
  Option.iter Journal.close jhandle;
  Ok
    {
      config = cfg;
      horizon;
      rules = Array.length space.Space.rules;
      envs = Array.length space.Space.envs;
      total_states;
      total_schedules;
      planned_states = planned;
      explored_states = !explored;
      covered_schedules = !covered;
      violations = List.rev !violations;
      resumed_states;
      complete = !explored >= total_states;
    }

let exit_code r = if r.violations <> [] then 1 else if r.complete then 0 else 3

let summary r =
  let b = Buffer.create 256 in
  let pct =
    if r.total_states = 0 then 100.
    else 100. *. float_of_int r.explored_states /. float_of_int r.total_states
  in
  Printf.bprintf b "verify %s: n=%d alpha=%g horizon=%d rules=%d envs=%d seeds/state=%d\n"
    r.config.protocol r.config.n r.config.alpha r.horizon r.rules r.envs
    r.config.seeds_per_state;
  if r.config.reduction then
    Printf.bprintf b "  states:     %d canonical / %d schedules (%.1fx reduction)\n"
      r.total_states r.total_schedules
      (if r.total_states = 0 then 1.
       else float_of_int r.total_schedules /. float_of_int r.total_states)
  else Printf.bprintf b "  states:     %d schedules (no reduction)\n" r.total_states;
  Printf.bprintf b "  explored:   %d (%.1f%% of the space) covering %d schedules\n"
    r.explored_states pct r.covered_schedules;
  Printf.bprintf b "  violations: %d\n" (List.length r.violations);
  Printf.bprintf b "  verdict:    %s"
    (if r.violations <> [] then "violated"
     else if r.complete then "exhaustive-clean"
     else "partial-clean");
  Buffer.contents b
