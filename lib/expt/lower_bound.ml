module Stats = Ftc_analysis.Stats
module Table = Ftc_analysis.Table
module Influence = Ftc_analysis.Influence
module Params = Ftc_core.Params
module Decision = Ftc_sim.Decision

let starved_params s =
  {
    Params.default with
    Params.candidate_coeff = Params.default.Params.candidate_coeff *. s;
    referee_coeff = Params.default.Params.referee_coeff *. s;
  }

type probe = {
  msgs : float;
  ok : bool;
  disjoint_deciding : int;
}

let probe_agreement ~n ~alpha ~seed s =
  let spec =
    {
      (Runner.default_spec (Ftc_core.Agreement.make (starved_params s)) ~n ~alpha) with
      inputs = Runner.Random_bits 0.5;
      trace = Ftc_sim.Trace.Log;
    }
  in
  let o = Runner.run spec ~seed in
  let rep = Ftc_core.Properties.check_implicit_agreement ~inputs:o.inputs_used o.result in
  let disjoint_deciding =
    match o.result.Ftc_sim.Engine.trace with
    | None -> 0
    | Some trace ->
        let infl = Influence.of_trace ~n trace in
        let decided =
          Array.map
            (fun d -> match d with Decision.Agreed _ -> true | _ -> false)
            o.result.Ftc_sim.Engine.decisions
        in
        let deciding = Influence.deciding_clouds infl ~decided in
        Influence.disjoint_cloud_count
          { infl with Influence.clouds = deciding }
  in
  {
    msgs = float_of_int o.result.Ftc_sim.Engine.metrics.Ftc_sim.Metrics.msgs_sent;
    ok = rep.ok;
    disjoint_deciding;
  }

let probe_election ~n ~alpha ~seed s =
  let spec =
    Runner.default_spec (Ftc_core.Leader_election.make (starved_params s)) ~n ~alpha
  in
  let o = Runner.run spec ~seed in
  let rep = Ftc_core.Properties.check_implicit_election o.result in
  {
    msgs = float_of_int o.result.Ftc_sim.Engine.metrics.Ftc_sim.Metrics.msgs_sent;
    ok = rep.ok;
    disjoint_deciding = 0;
  }

let summarise_probes probes =
  let k = List.length probes in
  let oks = List.length (List.filter (fun p -> p.ok) probes) in
  let msgs = Stats.summarize (List.map (fun p -> p.msgs) probes) in
  let multi =
    List.length (List.filter (fun p -> p.disjoint_deciding >= 2) probes)
  in
  (k, oks, msgs, multi)

let f9 =
  {
    Def.id = "F9";
    title = "lower bounds: starved protocols split into disjoint clouds";
    paper = "Thm 4.2 / Thm 5.2: Omega(sqrt(n)/alpha^(3/2)) messages";
    run =
      (fun ctx ->
        let n = match ctx.scale with Def.Quick -> 1024 | Def.Full -> 2048 in
        let alpha = 0.5 in
        let trials = Def.trials ctx ~quick:15 ~full:30 in
        let threshold = sqrt (float_of_int n) /. (alpha ** 1.5) in
        let scales = [ 0.03; 0.06; 0.12; 0.25; 1.0 ] in
        let seeds = Runner.seeds ~base:ctx.base_seed ~count:trials in
        let ag_rows =
          List.map
            (fun s ->
              let probes =
                Ftc_parallel.Pool.run_map ~jobs:ctx.Def.jobs
                  (fun seed -> probe_agreement ~n ~alpha ~seed s)
                  seeds
              in
              let k, oks, msgs, multi = summarise_probes probes in
              [
                Table.fmt_float ~digits:2 s;
                Table.fmt_int (int_of_float msgs.Stats.mean);
                Table.fmt_float ~digits:2 (msgs.Stats.mean /. threshold);
                Printf.sprintf "%d/%d" oks k;
                Printf.sprintf "%d/%d" multi k;
              ])
            scales
        in
        let le_rows =
          List.map
            (fun s ->
              let probes =
                Ftc_parallel.Pool.run_map ~jobs:ctx.Def.jobs
                  (fun seed -> probe_election ~n ~alpha ~seed s)
                  seeds
              in
              let k, oks, msgs, _ = summarise_probes probes in
              [
                Table.fmt_float ~digits:2 s;
                Table.fmt_int (int_of_float msgs.Stats.mean);
                Table.fmt_float ~digits:2 (msgs.Stats.mean /. threshold);
                Printf.sprintf "%d/%d" oks k;
              ])
            scales
        in
        Def.section "F9" "message lower bounds (Theorems 4.2 / 5.2)"
          (String.concat "\n"
             [
               Printf.sprintf
                 "n = %d, alpha = %.2f, lower-bound threshold sqrt(n)/alpha^1.5 = %.0f\n\
                  messages. Both sampling constants scaled by s; fault-free network\n\
                  (the bounds hold even with zero crashes)."
                 n alpha threshold;
               "";
               "Agreement (Thm 5.2). '>=2 clouds' counts runs whose deciding";
               "influence clouds contain two pairwise-disjoint ones:";
               Table.render
                 ~headers:[ "s"; "messages"; "msgs/threshold"; "agreement ok"; ">=2 clouds" ]
                 ~rows:ag_rows ();
               "";
               "Leader election (Thm 4.2):";
               Table.render
                 ~headers:[ "s"; "messages"; "msgs/threshold"; "election ok" ]
                 ~rows:le_rows ();
             ]));
  }
