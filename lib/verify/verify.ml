module Case = Ftc_chaos.Case
module Oracle = Ftc_chaos.Oracle
module Replay = Ftc_chaos.Replay
module Journal = Ftc_journal.Journal
module Json = Ftc_journal.Json
module Recorder = Ftc_telemetry.Recorder
module Registry = Ftc_telemetry.Registry
module Pool = Ftc_parallel.Pool

(* Chunking is part of the determinism story: states are journaled in
   fixed-size chunks and fanned out in fixed-size slices, both
   independent of [--jobs], so the exploration order, the journal and
   the report never depend on the worker count. *)
let chunk_states = 512
let slice_states = 64

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
   one. Runs on pool workers — everything it touches is immutable. *)
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

let take k seq =
  let rec go k acc seq =
    if k = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, tl) -> go (k - 1) (x :: acc) tl
  in
  go k [] seq

let rec slice_up k = function
  | [] -> []
  | xs ->
      let rec split i acc = function
        | rest when i = k -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> split (i + 1) (x :: acc) rest
      in
      let head, rest = split 0 [] xs in
      head :: slice_up k rest

let with_runner ~recorder ~jobs f =
  if jobs = 1 then f (fun g xs -> List.map g xs)
  else
    let monitor = Ftc_telemetry.Instrument.pool_monitor recorder "verify" in
    Pool.with_pool ?monitor ~jobs (fun pool -> f (fun g xs -> Pool.map pool g xs))

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
  let seq =
    ref
      (Seq.drop resumed_states
         (if cfg.reduction then Space.states space else Space.all_states space))
  in
  with_runner ~recorder ~jobs:cfg.jobs (fun map_slices ->
      while (not !stop) && !explored < planned do
        let offset = !explored in
        let chunk, rest = take (min chunk_states (planned - offset)) !seq in
        seq := rest;
        if chunk = [] then stop := true
        else begin
          let results =
            List.concat
              (map_slices
                 (fun sl -> List.map (fun s -> eval space cfg s) sl)
                 (slice_up slice_states chunk))
          in
          (* Scan in submission order; without --keep-going, truncate the
             chunk at the first violation so the counterexample is the
             BFS-minimal one and later (already computed) states are
             discarded as if never explored. *)
          let rec scan i states rs acc_expl acc_orbs acc_viols =
            match (states, rs) with
            | [], [] -> (acc_expl, acc_orbs, List.rev acc_viols, false)
            | s :: ss, r :: rr -> (
                let orb = if cfg.reduction then Space.orbit_size space s else 1 in
                let acc_expl = acc_expl + 1 and acc_orbs = acc_orbs + orb in
                match r with
                | None -> scan (i + 1) ss rr acc_expl acc_orbs acc_viols
                | Some (si, ids, details) ->
                    let v =
                      {
                        index = offset + i;
                        state = Space.encode space s;
                        seed_index = si;
                        case =
                          Space.to_case space ~base_seed:cfg.base_seed ~seed_index:si s;
                        oracles = ids;
                        details;
                      }
                    in
                    if cfg.keep_going then
                      scan (i + 1) ss rr acc_expl acc_orbs (v :: acc_viols)
                    else (acc_expl, acc_orbs, List.rev (v :: acc_viols), true))
            | _ -> assert false
          in
          let chunk_expl, chunk_orbs, chunk_viols, hit = scan 0 chunk results 0 0 [] in
          explored := !explored + chunk_expl;
          covered := !covered + chunk_orbs;
          violations := List.rev_append chunk_viols !violations;
          nviols := !nviols + List.length chunk_viols;
          if hit then stop := true;
          Option.iter
            (fun h ->
              Journal.append h
                (chunk_record ~chunk:!chunk_id ~explored:chunk_expl ~orbits:chunk_orbs
                   chunk_viols))
            jhandle;
          incr chunk_id;
          Registry.incr reg "ftc_verify_states" chunk_expl;
          if chunk_viols <> [] then
            Registry.incr reg "ftc_verify_violations" (List.length chunk_viols);
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
              (Printf.sprintf "verify %s: %d/%d states, %d violation(s)" cfg.protocol
                 !explored planned !nviols)
        end
      done);
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
