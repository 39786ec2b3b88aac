module Stats = Ftc_analysis.Stats
module Fit = Ftc_analysis.Fit
module Table = Ftc_analysis.Table
module Params = Ftc_core.Params

let params = Params.default

let le_spec ?(explicit = false) ~n ~alpha () =
  {
    (Runner.default_spec (Ftc_core.Leader_election.make ~explicit params) ~n ~alpha) with
    adversary = (fun () -> Ftc_fault.Strategy.random_crashes ());
    fast_protocol = Some (Ftc_core.Leader_election_fast.make ~explicit params);
  }

let ag_spec ?(explicit = false) ~n ~alpha () =
  {
    (Runner.default_spec (Ftc_core.Agreement.make ~explicit params) ~n ~alpha) with
    inputs = Runner.Random_bits 0.5;
    adversary = (fun () -> Ftc_fault.Strategy.random_crashes ());
  }

let le_ok (o : Runner.outcome) = (Ftc_core.Properties.check_implicit_election o.result).ok
let le_explicit_ok (o : Runner.outcome) = (Ftc_core.Properties.check_explicit_election o.result).ok

let ag_ok (o : Runner.outcome) =
  (Ftc_core.Properties.check_implicit_agreement ~inputs:o.inputs_used o.result).ok

let ag_explicit_ok (o : Runner.outcome) =
  (Ftc_core.Properties.check_explicit_agreement ~inputs:o.inputs_used o.result).ok

type point = { x : float; agg : Runner.aggregate }

(* Each sweep point runs through the journaled path: with no journal in
   the ctx it degrades to the plain parallel runner; with one, completed
   trials are recorded under a key naming the experiment and the x value
   (17 significant digits, so the key is bit-stable) and an interrupted
   [ftc expt --journal]/[--resume] run re-runs only the missing trials. *)
let sweep ~(ctx : Def.ctx) ~id ~spec_of ~ok ~xs ~trials ?(base_seed_offset = 0) () =
  List.map
    (fun x ->
      let spec = spec_of x in
      let key = Printf.sprintf "%s:x=%.17g" id x in
      let stats =
        Supervise.run_many_journaled ~jobs:ctx.Def.jobs ~journal:ctx.Def.journal ~key ~ok spec
          ~seeds:(Runner.seeds ~base:(ctx.Def.base_seed + base_seed_offset) ~count:trials)
      in
      { x; agg = Runner.aggregate_stats stats })
    xs

let row_of_point label fmt_x p =
  [
    fmt_x p.x;
    Table.fmt_int (int_of_float p.agg.Runner.msgs.Stats.mean);
    Table.fmt_int (int_of_float p.agg.Runner.bits.Stats.mean);
    Table.fmt_float ~digits:1 p.agg.Runner.rounds.Stats.mean;
    Printf.sprintf "%d/%d" p.agg.Runner.successes p.agg.Runner.trials;
    label;
  ]

let render_points ~x_header ~label ~fmt_x points =
  Table.render
    ~headers:[ x_header; "messages"; "bits"; "rounds"; "success"; "protocol" ]
    ~rows:(List.map (row_of_point label fmt_x) points)
    ()

let fit_line ~what ~expect ~(fit : Fit.t) =
  Printf.sprintf "fit: %s ~ x^%.3f (R^2 = %.3f); paper predicts exponent %s" what fit.exponent
    fit.r2 expect

let metric_pairs points metric =
  List.map (fun p -> (p.x, metric p.agg)) points

let msgs_mean (a : Runner.aggregate) = a.msgs.Stats.mean
let bits_mean (a : Runner.aggregate) = a.bits.Stats.mean

(* F1: leader-election messages vs n at constant alpha. *)
let f1 =
  {
    Def.id = "F1";
    title = "LE messages vs n (Theorem 4.1)";
    paper = "Thm 4.1: O(n^(1/2) log^(5/2) n / alpha^(5/2)) messages";
    run =
      (fun ctx ->
        let ns =
          match ctx.scale with
          | Def.Quick -> [ 128; 256; 512; 1024 ]
          | Def.Full -> [ 256; 512; 1024; 2048; 4096; 8192 ]
        in
        (* --engine fast adds two more decades of n — the regime where
           the paper's sublinear scaling separates visually from the
           Theta(n^2) baselines. Default runs keep the historical point
           set (and byte-identical output). *)
        let ns =
          if ctx.fast_engine && ctx.scale = Def.Full then ns @ [ 65536; 262144; 1048576 ]
          else ns
        in
        let trials = Def.trials ctx ~quick:3 ~full:8 in
        let alpha = 0.7 in
        let points =
          sweep ~ctx ~id:"F1"
            ~spec_of:(fun n -> le_spec ~n:(int_of_float n) ~alpha ())
            ~ok:le_ok ~xs:(List.map float_of_int ns) ~trials ()
        in
        let fit =
          Fit.power_law_divided_polylog ~log_power:2.5 (metric_pairs points msgs_mean)
        in
        let raw = Fit.power_law (metric_pairs points msgs_mean) in
        Def.section "F1" "leader election: messages vs n"
          (String.concat "\n"
             [
               Printf.sprintf "alpha = %.2f, adversary = random crashes" alpha;
               render_points ~x_header:"n" ~label:"ft-leader-election"
                 ~fmt_x:(fun x -> string_of_int (int_of_float x))
                 points;
               fit_line ~what:"messages / ln^2.5 n" ~expect:"1/2" ~fit;
               fit_line ~what:"messages (raw)" ~expect:"1/2 + polylog drift" ~fit:raw;
             ]));
  }

(* F2: leader-election messages vs alpha at constant n. *)
let f2 =
  {
    Def.id = "F2";
    title = "LE messages vs alpha (Theorem 4.1)";
    paper = "Thm 4.1: messages scale as alpha^(-5/2)";
    run =
      (fun ctx ->
        (* Under --engine fast the Full-scale alpha sweep moves two
           decades right in n. *)
        let n =
          match ctx.scale with
          | Def.Quick -> 256
          | Def.Full -> if ctx.fast_engine then 131072 else 1024
        in
        let alphas = [ 0.3; 0.4; 0.5; 0.65; 0.8; 1.0 ] in
        let trials = Def.trials ctx ~quick:3 ~full:8 in
        let points =
          sweep ~ctx ~id:"F2"
            ~spec_of:(fun alpha -> le_spec ~n ~alpha ())
            ~ok:le_ok ~xs:alphas ~trials ()
        in
        let fit = Fit.power_law (metric_pairs points msgs_mean) in
        Def.section "F2" "leader election: messages vs alpha"
          (String.concat "\n"
             [
               Printf.sprintf "n = %d, adversary = random crashes" n;
               render_points ~x_header:"alpha" ~label:"ft-leader-election"
                 ~fmt_x:(Table.fmt_float ~digits:2) points;
               fit_line ~what:"messages" ~expect:"-5/2 (to -3 at finite n: the\n\
                  preprocessing term |C|^2 R^2 / n carries alpha^-3)" ~fit;
             ]));
  }

(* F3: round complexity of both protocols. *)
let f3 =
  {
    Def.id = "F3";
    title = "rounds: O(log n / alpha) (Theorems 4.1, 5.1)";
    paper = "Thm 4.1 and Thm 5.1: O(log n / alpha) rounds";
    run =
      (fun ctx ->
        let trials = Def.trials ctx ~quick:3 ~full:8 in
        let ns =
          match ctx.scale with
          | Def.Quick -> [ 128; 512 ]
          | Def.Full -> [ 256; 1024; 4096 ]
        in
        let alphas = [ 0.4; 0.7; 1.0 ] in
        let rows = ref [] in
        List.iter
          (fun n ->
            List.iter
              (fun alpha ->
                let le =
                  Runner.aggregate_stats
                    (Supervise.run_many_journaled ~jobs:ctx.jobs ~journal:ctx.journal
                       ~key:(Printf.sprintf "F3:le:n=%d:alpha=%.17g" n alpha)
                       ~ok:le_ok (le_spec ~n ~alpha ())
                       ~seeds:(Runner.seeds ~base:ctx.base_seed ~count:trials))
                in
                let ag =
                  Runner.aggregate_stats
                    (Supervise.run_many_journaled ~jobs:ctx.jobs ~journal:ctx.journal
                       ~key:(Printf.sprintf "F3:ag:n=%d:alpha=%.17g" n alpha)
                       ~ok:ag_ok (ag_spec ~n ~alpha ())
                       ~seeds:(Runner.seeds ~base:(ctx.base_seed + 7) ~count:trials))
                in
                let budget = Float.log (float_of_int n) /. alpha in
                rows :=
                  [
                    string_of_int n;
                    Table.fmt_float ~digits:2 alpha;
                    Table.fmt_float ~digits:1 le.Runner.rounds.Stats.mean;
                    Table.fmt_float ~digits:2 (le.Runner.rounds.Stats.mean /. budget);
                    Table.fmt_float ~digits:1 ag.Runner.rounds.Stats.mean;
                    Table.fmt_float ~digits:2 (ag.Runner.rounds.Stats.mean /. budget);
                  ]
                  :: !rows)
              alphas)
          ns;
        Def.section "F3" "round complexity"
          (String.concat "\n"
             [
               "Both protocols must stay within O(log n / alpha) rounds; the";
               "ratio columns (rounds normalised by ln n / alpha) must stay bounded";
               "as n grows and alpha shrinks.";
               Table.render
                 ~headers:
                   [ "n"; "alpha"; "LE rounds"; "LE/(ln n/a)"; "AGR rounds"; "AGR/(ln n/a)" ]
                 ~rows:(List.rev !rows) ();
             ]));
  }

(* F4: agreement bits vs n. *)
let f4 =
  {
    Def.id = "F4";
    title = "agreement message bits vs n (Theorem 5.1)";
    paper = "Thm 5.1: O(n^(1/2) log^(3/2) n / alpha^(3/2)) message bits";
    run =
      (fun ctx ->
        let ns =
          match ctx.scale with
          | Def.Quick -> [ 128; 256; 512; 1024 ]
          | Def.Full -> [ 256; 512; 1024; 2048; 4096; 8192 ]
        in
        let trials = Def.trials ctx ~quick:3 ~full:8 in
        let alpha = 0.7 in
        let points =
          sweep ~ctx ~id:"F4"
            ~spec_of:(fun n -> ag_spec ~n:(int_of_float n) ~alpha ())
            ~ok:ag_ok ~xs:(List.map float_of_int ns) ~trials ()
        in
        let fit =
          Fit.power_law_divided_polylog ~log_power:1.5 (metric_pairs points bits_mean)
        in
        Def.section "F4" "agreement: message bits vs n"
          (String.concat "\n"
             [
               Printf.sprintf "alpha = %.2f, random half-and-half inputs, random crashes" alpha;
               render_points ~x_header:"n" ~label:"ft-agreement"
                 ~fmt_x:(fun x -> string_of_int (int_of_float x))
                 points;
               fit_line ~what:"bits / ln^1.5 n" ~expect:"1/2" ~fit;
             ]));
  }

(* F5: agreement messages vs alpha. *)
let f5 =
  {
    Def.id = "F5";
    title = "agreement messages vs alpha (Theorem 5.1)";
    paper = "Thm 5.1: messages scale as alpha^(-3/2)";
    run =
      (fun ctx ->
        let n = match ctx.scale with Def.Quick -> 256 | Def.Full -> 1024 in
        let alphas = [ 0.3; 0.4; 0.5; 0.65; 0.8; 1.0 ] in
        let trials = Def.trials ctx ~quick:3 ~full:8 in
        let points =
          sweep ~ctx ~id:"F5"
            ~spec_of:(fun alpha -> ag_spec ~n ~alpha ())
            ~ok:ag_ok ~xs:alphas ~trials ()
        in
        let fit = Fit.power_law (metric_pairs points msgs_mean) in
        Def.section "F5" "agreement: messages vs alpha"
          (String.concat "\n"
             [
               Printf.sprintf "n = %d, random half-and-half inputs, random crashes" n;
               render_points ~x_header:"alpha" ~label:"ft-agreement"
                 ~fmt_x:(Table.fmt_float ~digits:2) points;
               fit_line ~what:"messages" ~expect:"-3/2" ~fit;
             ]));
  }

(* F10: explicit extensions. *)
let f10 =
  {
    Def.id = "F10";
    title = "explicit extensions: Theta(n log n / alpha) messages";
    paper = "Sec. IV-A / V-A: explicit versions in O(n log n / alpha) messages, +O(1) rounds";
    run =
      (fun ctx ->
        let ns =
          match ctx.scale with
          | Def.Quick -> [ 128; 256; 512 ]
          | Def.Full -> [ 256; 512; 1024; 2048; 4096 ]
        in
        let trials = Def.trials ctx ~quick:3 ~full:6 in
        let alpha = 0.7 in
        let le_points =
          sweep ~ctx ~id:"F10:le"
            ~spec_of:(fun n -> le_spec ~explicit:true ~n:(int_of_float n) ~alpha ())
            ~ok:le_explicit_ok ~xs:(List.map float_of_int ns) ~trials ()
        in
        let ag_points =
          sweep ~ctx ~id:"F10:ag"
            ~spec_of:(fun n -> ag_spec ~explicit:true ~n:(int_of_float n) ~alpha ())
            ~ok:ag_explicit_ok ~xs:(List.map float_of_int ns) ~trials ~base_seed_offset:13 ()
        in
        let le_fit = Fit.power_law (metric_pairs le_points msgs_mean) in
        let ag_fit = Fit.power_law (metric_pairs ag_points msgs_mean) in
        Def.section "F10" "explicit leader election and agreement"
          (String.concat "\n"
             [
               Printf.sprintf "alpha = %.2f, random crashes" alpha;
               render_points ~x_header:"n" ~label:"explicit LE"
                 ~fmt_x:(fun x -> string_of_int (int_of_float x))
                 le_points;
               fit_line ~what:"LE messages" ~expect:"1 (linear, up to log factor)" ~fit:le_fit;
               render_points ~x_header:"n" ~label:"explicit agreement"
                 ~fmt_x:(fun x -> string_of_int (int_of_float x))
                 ag_points;
               fit_line ~what:"AGR messages" ~expect:"1 (linear, up to log factor)" ~fit:ag_fit;
             ]));
  }
