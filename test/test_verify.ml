(* Tests for the exhaustive small-n verifier: the closed-form counters
   against the actual enumerations (orbit sizes must sum to the raw
   schedule count), canonical forms (idempotent, permutation-invariant,
   and exactly what [states] yields), the symmetry-reduction soundness
   property — at n = 3 the reduced and unreduced enumerations flag the
   same canonical schedules, exhaustively and under qcheck-drawn input
   multisets — the "minimal by construction" claim (the shrinker is a
   no-op on a verifier counterexample), journal resume identity, jobs
   determinism, and the golden summary format. *)

module Space = Ftc_verify.Space
module Verify = Ftc_verify.Verify
module Case = Ftc_chaos.Case
module Oracle = Ftc_chaos.Oracle
module Fuzz = Ftc_chaos.Fuzz

let make_space ?keep_prefix_max ?grid ?horizon ?fixed_inputs ~protocol ~n () =
  match
    Space.make ?keep_prefix_max ?grid ?horizon ?fixed_inputs ~protocol ~n ~alpha:0.5 ()
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "Space.make: %s" e

(* -- counting vs enumeration -- *)

let check_counts t =
  let counts = Space.count t in
  let canonical = ref 0 and orbits = ref 0 in
  Seq.iter
    (fun s ->
      incr canonical;
      orbits := !orbits + Space.orbit_size t s)
    (Space.states t);
  Alcotest.(check int) "canonical count" counts.Space.canonical !canonical;
  Alcotest.(check int) "orbit sizes sum to schedules" counts.Space.schedules !orbits

let test_counts_small () =
  check_counts (make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 ());
  check_counts (make_space ~protocol:"crash-probe" ~n:4 ~horizon:1 ~grid:true ());
  check_counts (make_space ~protocol:"ft-agreement" ~n:3 ~horizon:2 ~keep_prefix_max:1 ())

let test_all_states_count () =
  let t = make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 () in
  let counts = Space.count t in
  Alcotest.(check int) "all_states length" counts.Space.schedules
    (Seq.fold_left (fun acc _ -> acc + 1) 0 (Space.all_states t))

let qcheck_counts =
  QCheck.Test.make ~name:"closed-form counts match enumeration" ~count:20
    QCheck.(quad (int_range 2 5) (int_range 1 3) (int_range 0 2) bool)
    (fun (n, horizon, kpm, grid) ->
      let t = make_space ~protocol:"crash-probe" ~n ~horizon ~keep_prefix_max:kpm ~grid () in
      let counts = Space.count t in
      let canonical = ref 0 and orbits = ref 0 in
      Seq.iter
        (fun s ->
          incr canonical;
          orbits := !orbits + Space.orbit_size t s)
        (Space.states t);
      counts.Space.canonical = !canonical && counts.Space.schedules = !orbits)

(* -- canonical forms -- *)

(* A random state of the n=3, horizon=2 crash-probe space: per-node
   label indices over the full label alphabet, crash budget respected by
   construction (at most one crash index). *)
let state_gen t =
  QCheck.(
    map
      (fun (i0, i1, i2, crash_at, cr) ->
        let inputs = [| i0 land 1; i1 land 1; i2 land 1 |] in
        let labels =
          Array.mapi
            (fun v input ->
              if crash_at = v then
                { Space.input; crash = Some (cr mod t.Space.horizon, cr mod 4) }
              else { Space.input; crash = None })
            inputs
        in
        { Space.env = 0; labels })
      (quad (int_range 0 1) (int_range 0 1) (int_range 0 1)
         (pair (int_range (-1) 2) (int_range 0 7))
      |> map (fun (a, b, c, (d, e)) -> (a, b, c, d, e))))

let shuffle_of perm (s : Space.state) =
  { s with Space.labels = Array.map (fun i -> s.Space.labels.(i)) perm }

let qcheck_canonicalize =
  let t = make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 () in
  QCheck.Test.make ~name:"canonicalize is idempotent and permutation-invariant" ~count:300
    QCheck.(pair (state_gen t) (int_range 0 5))
    (fun (s, p) ->
      let perms =
        [|
          [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |];
          [| 2; 1; 0 |];
        |]
      in
      let c = Space.canonicalize s in
      let c' = Space.canonicalize (shuffle_of perms.(p) s) in
      Space.encode t c = Space.encode t c'
      && Space.encode t (Space.canonicalize c) = Space.encode t c
      && Space.orbit_size t s = Space.orbit_size t c)

let test_states_are_canonical_and_distinct () =
  let t = make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 ~grid:true () in
  let seen = Hashtbl.create 64 in
  Seq.iter
    (fun s ->
      let e = Space.encode t s in
      Alcotest.(check string) "state is canonical" e (Space.encode t (Space.canonicalize s));
      if Hashtbl.mem seen e then Alcotest.failf "duplicate canonical state %s" e;
      Hashtbl.add seen e ())
    (Space.states t)

(* -- symmetry-reduction soundness -- *)

(* A state violates when its literal case (labels in place, seed from the
   canonical form) has any oracle finding. *)
let violates t s =
  Case.findings (Space.to_case t ~base_seed:1 ~seed_index:0 s) <> []

(* Reduced and unreduced enumeration must flag exactly the same canonical
   schedules: canonicalization never hides (or invents) a violation. *)
let check_soundness t =
  let canon_of s = Space.encode t (Space.canonicalize s) in
  let reduced = Hashtbl.create 16 and unreduced = Hashtbl.create 16 in
  Seq.iter (fun s -> if violates t s then Hashtbl.replace reduced (canon_of s) ()) (Space.states t);
  Seq.iter
    (fun s ->
      let key = canon_of s in
      let wrong = violates t s <> Hashtbl.mem reduced key in
      if wrong then
        Alcotest.failf "orbit member of %s disagrees with its canonical verdict" key;
      if violates t s then Hashtbl.replace unreduced key ())
    (Space.all_states t);
  Alcotest.(check int) "same violating canonical set" (Hashtbl.length reduced)
    (Hashtbl.length unreduced)

let test_soundness_exhaustive_n3 () =
  check_soundness (make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 ())

let qcheck_soundness_over_inputs =
  QCheck.Test.make ~name:"symmetry soundness holds for every fixed input multiset" ~count:8
    QCheck.(triple (int_range 0 1) (int_range 0 1) (int_range 0 1))
    (fun (a, b, c) ->
      let fixed_inputs = [| a; b; c |] in
      let t = make_space ~protocol:"crash-probe" ~n:3 ~horizon:2 ~fixed_inputs () in
      check_soundness t;
      true)

(* -- minimal by construction: the shrinker fixes nothing -- *)

let first_violation cfg =
  match Verify.run cfg with
  | Error e -> Alcotest.failf "verify: %s" e
  | Ok r -> (
      match r.Verify.violations with
      | v :: _ -> (r, v)
      | [] -> Alcotest.fail "expected a violation")

let test_shrinker_fixpoint () =
  let cfg = { (Verify.default_config ~protocol:"crash-probe") with n = 4; horizon = 2 } in
  let _r, v = first_violation cfg in
  let findings = Case.findings v.Verify.case in
  Alcotest.(check bool) "counterexample still fails" true (findings <> []);
  let f = Fuzz.shrink_failure v.Verify.case findings in
  Alcotest.(check bool) "shrinker is a no-op on a verifier counterexample" true
    (Case.equal f.Fuzz.shrunk v.Verify.case);
  (* And it is the known-minimal schedule: one crash, round 0,
     keep-prefix 1, all-zero inputs, pure env. *)
  Alcotest.(check (list (triple int int string)))
    "single round-0 keep-prefix-1 crash"
    [ (3, 0, "keep-prefix 1") ]
    (List.map
       (fun (v, r, rule) -> (v, r, Case.rule_to_string rule))
       v.Verify.case.Case.plan);
  Alcotest.(check (array int)) "all-zero inputs" [| 0; 0; 0; 0 |] v.Verify.case.Case.inputs

(* -- golden summary -- *)

let test_golden_summary_violated () =
  let cfg = { (Verify.default_config ~protocol:"crash-probe") with n = 3; horizon = 2 } in
  let r, v = first_violation cfg in
  Alcotest.(check string) "summary"
    "verify crash-probe: n=3 alpha=0.5 horizon=2 rules=4 envs=1 seeds/state=1\n\
    \  states:     52 canonical / 200 schedules (3.8x reduction)\n\
    \  explored:   11 (21.2% of the space) covering 35 schedules\n\
    \  violations: 1\n\
    \  verdict:    violated"
    (Verify.summary r);
  Alcotest.(check int) "BFS position" 10 v.Verify.index;
  Alcotest.(check string) "violating state"
    "crash-probe n=3 env=0:loss=none queue=none transport=off [0 0 0!0:keep-prefix 1]"
    v.Verify.state;
  Alcotest.(check int) "exit code" 1 (Verify.exit_code r)

let test_golden_summary_clean () =
  let cfg =
    {
      (Verify.default_config ~protocol:"crash-probe") with
      n = 3;
      horizon = 2;
      problem_oracles = false;
    }
  in
  match Verify.run cfg with
  | Error e -> Alcotest.failf "verify: %s" e
  | Ok r ->
      Alcotest.(check string) "summary"
        "verify crash-probe: n=3 alpha=0.5 horizon=2 rules=4 envs=1 seeds/state=1\n\
        \  states:     52 canonical / 200 schedules (3.8x reduction)\n\
        \  explored:   52 (100.0% of the space) covering 200 schedules\n\
        \  violations: 0\n\
        \  verdict:    exhaustive-clean"
        (Verify.summary r);
      Alcotest.(check int) "exit code" 0 (Verify.exit_code r)

let test_capped_is_partial () =
  let cfg =
    {
      (Verify.default_config ~protocol:"crash-probe") with
      n = 3;
      horizon = 2;
      problem_oracles = false;
      max_states = Some 10;
    }
  in
  match Verify.run cfg with
  | Error e -> Alcotest.failf "verify: %s" e
  | Ok r ->
      Alcotest.(check bool) "not complete" false r.Verify.complete;
      Alcotest.(check int) "explored the cap" 10 r.Verify.explored_states;
      Alcotest.(check int) "exit code 3" 3 (Verify.exit_code r)

(* -- determinism and resume -- *)

let report_fingerprint (r : Verify.report) =
  ( Verify.summary r,
    List.map
      (fun (v : Verify.violation) -> (v.index, v.state, v.seed_index, v.oracles, v.details))
      r.Verify.violations )

let test_jobs_determinism () =
  let cfg =
    {
      (Verify.default_config ~protocol:"crash-probe") with
      n = 4;
      horizon = 2;
      keep_going = true;
    }
  in
  match (Verify.run cfg, Verify.run { cfg with jobs = 2 }) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "jobs=1 and jobs=2 reports identical" true
        (report_fingerprint a = report_fingerprint b)
  | Error e, _ | _, Error e -> Alcotest.failf "verify: %s" e

(* Journal a full run, replay its chunk prefix into a fresh journal, and
   resume from it: the resumed report must equal the uninterrupted one
   (this is the byte-identical stdout contract, one level down). *)
let test_journal_resume_identity () =
  let cfg =
    { (Verify.default_config ~protocol:"crash-probe") with n = 4; problem_oracles = false }
  in
  let full = Filename.temp_file "ftc-verify" ".journal" in
  let cut = Filename.temp_file "ftc-verify" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove full;
      Sys.remove cut)
    (fun () ->
      let a =
        match Verify.run ~journal:full cfg with
        | Ok r -> r
        | Error e -> Alcotest.failf "verify: %s" e
      in
      Alcotest.(check bool) "space spans several chunks" true
        (a.Verify.explored_states > 512);
      (* Keep the header and the first chunk record only — as if the
         run had been SIGKILLed after one checkpoint. *)
      let ic = open_in_bin full in
      let header = input_line ic in
      let chunk0 = input_line ic in
      close_in ic;
      let oc = open_out_bin cut in
      output_string oc (header ^ "\n" ^ chunk0 ^ "\n");
      close_out oc;
      let b =
        match Verify.run ~journal:cut ~resume:true cfg with
        | Ok r -> r
        | Error e -> Alcotest.failf "resume: %s" e
      in
      Alcotest.(check int) "resumed exactly one chunk" 512 b.Verify.resumed_states;
      Alcotest.(check bool) "resumed report identical" true
        (report_fingerprint a = report_fingerprint b))

(* -- the same exploration at every job count -- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let with_temp f =
  let path = Filename.temp_file "ftc-verify" ".journal" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let first_counterexample (r : Verify.report) =
  match r.Verify.violations with
  | v :: _ ->
      Some (v.index, v.state, Ftc_chaos.Replay.to_string ~expect:v.oracles v.case)
  | [] -> None

let run_ok ?journal ?resume cfg =
  match Verify.run ?journal ?resume cfg with
  | Ok r -> r
  | Error e -> Alcotest.failf "verify: %s" e

(* The journal's header and first [k] chunk records. *)
let cut_journal bytes k =
  let lines = String.split_on_char '\n' bytes in
  String.concat "" (List.filteri (fun i _ -> i <= k) lines |> List.map (fun l -> l ^ "\n"))

(* A violating space (its first violation is in chunk 0, so without
   --keep-going workers 2 and 3 claim chunks that must be discarded)
   and a clean one, both capped mid-chunk. *)
let spaces =
  [
    ( "ft-leader-election",
      { (Verify.default_config ~protocol:"ft-leader-election") with n = 4 } );
    ("ft-agreement", { (Verify.default_config ~protocol:"ft-agreement") with n = 4 });
  ]

let test_jobs_reports_and_journals () =
  List.iter
    (fun (name, base) ->
      List.iter
        (fun keep_going ->
          let cfg = { base with Verify.keep_going; max_states = Some 1300 } in
          let run_at jobs =
            with_temp (fun path ->
                let r = run_ok ~journal:path { cfg with jobs } in
                (r, read_file path))
          in
          let r1, j1 = run_at 1 in
          List.iter
            (fun jobs ->
              let r, j = run_at jobs in
              let label what =
                Printf.sprintf "%s keep_going=%b jobs=%d: %s" name keep_going jobs what
              in
              Alcotest.(check bool) (label "report") true
                (report_fingerprint r1 = report_fingerprint r);
              Alcotest.(check (option (triple int string string)))
                (label "first counterexample") (first_counterexample r1)
                (first_counterexample r);
              Alcotest.(check string) (label "journal bytes") j1 j)
            [ 2; 3 ])
        [ false; true ])
    spaces

(* A journal written at jobs 2 and cut after k records resumes at
   jobs 1 to the uninterrupted report, and completes the same journal. *)
let test_resume_across_jobs () =
  let cfg =
    {
      (Verify.default_config ~protocol:"ft-leader-election") with
      n = 4;
      keep_going = true;
      max_states = Some 1300;
    }
  in
  with_temp (fun full ->
      let a = run_ok ~journal:full { cfg with jobs = 2 } in
      let bytes = read_file full in
      List.iter
        (fun k ->
          with_temp (fun cut ->
              write_file cut (cut_journal bytes k);
              let b = run_ok ~journal:cut ~resume:true cfg in
              Alcotest.(check int) (Printf.sprintf "k=%d: resumed states" k) (512 * k)
                b.Verify.resumed_states;
              Alcotest.(check bool) (Printf.sprintf "k=%d: report" k) true
                (report_fingerprint a = report_fingerprint b);
              Alcotest.(check string)
                (Printf.sprintf "k=%d: journal" k)
                bytes (read_file cut)))
        [ 1; 2 ])

(* Journals written before workers claimed whole chunks (a coordinating
   domain fanned 64-state slices out over a queue) keep resuming: the
   chunk size and the spec hash did not change. [resume_fixture] copies
   the fixture, cuts it to its header and first [keep] records, resumes,
   and compares with an uninterrupted run. *)
let resume_fixture ~fixture ~keep cfg =
  let bytes = read_file fixture in
  with_temp (fun path ->
      write_file path (cut_journal bytes keep);
      let resumed = run_ok ~journal:path ~resume:true { cfg with Verify.jobs = 2 } in
      Alcotest.(check bool) (fixture ^ ": resumed something") true
        (resumed.Verify.resumed_states > 0);
      Alcotest.(check bool) (fixture ^ ": report") true
        (report_fingerprint (run_ok cfg) = report_fingerprint resumed);
      Alcotest.(check string) (fixture ^ ": journal") bytes (read_file path))

let test_resume_older_journals () =
  resume_fixture ~fixture:"fixtures/verify-sliced-clean.jsonl" ~keep:1
    { (Verify.default_config ~protocol:"ft-agreement") with n = 4; max_states = Some 1300 };
  resume_fixture ~fixture:"fixtures/verify-sliced-violated.jsonl" ~keep:1
    { (Verify.default_config ~protocol:"ft-leader-election") with n = 4 }

let test_resume_spec_mismatch () =
  let cfg = { (Verify.default_config ~protocol:"crash-probe") with n = 3; horizon = 2 } in
  let path = Filename.temp_file "ftc-verify" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Verify.run ~journal:path cfg with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "verify: %s" e);
      match Verify.run ~journal:path ~resume:true { cfg with base_seed = 2 } with
      | Error e ->
          Alcotest.(check bool) "mentions the mismatch" true
            (Astring.String.is_infix ~affix:"spec mismatch" e)
      | Ok _ -> Alcotest.fail "resume against a different spec must fail")

let () =
  Alcotest.run "verify"
    [
      ( "counting",
        [
          Alcotest.test_case "closed form vs enumeration" `Quick test_counts_small;
          Alcotest.test_case "all_states length" `Quick test_all_states_count;
          QCheck_alcotest.to_alcotest qcheck_counts;
        ] );
      ( "canonical",
        [
          QCheck_alcotest.to_alcotest qcheck_canonicalize;
          Alcotest.test_case "states are canonical and distinct" `Quick
            test_states_are_canonical_and_distinct;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "exhaustive at n=3" `Quick test_soundness_exhaustive_n3;
          QCheck_alcotest.to_alcotest qcheck_soundness_over_inputs;
        ] );
      ( "minimality",
        [ Alcotest.test_case "shrinker fixpoint" `Quick test_shrinker_fixpoint ] );
      ( "report",
        [
          Alcotest.test_case "golden summary (violated)" `Quick test_golden_summary_violated;
          Alcotest.test_case "golden summary (clean)" `Quick test_golden_summary_clean;
          Alcotest.test_case "capped sweep is partial" `Quick test_capped_is_partial;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 2" `Quick test_jobs_determinism;
          Alcotest.test_case "journal resume identity" `Quick test_journal_resume_identity;
          Alcotest.test_case "resume spec mismatch" `Quick test_resume_spec_mismatch;
          Alcotest.test_case "jobs 1-3: reports and journals" `Quick
            test_jobs_reports_and_journals;
          Alcotest.test_case "resume across job counts" `Quick test_resume_across_jobs;
          Alcotest.test_case "older journals resume" `Quick test_resume_older_journals;
        ] );
    ]
