(* Tests for the analysis toolkit: statistics, power-law fitting, table
   rendering, CSV escaping, and influence clouds on hand-built traces. *)

module Stats = Ftc_analysis.Stats
module Fit = Ftc_analysis.Fit
module Table = Ftc_analysis.Table
module Csv = Ftc_analysis.Csv
module Influence = Ftc_analysis.Influence
module Trace = Ftc_sim.Trace

let feq = Alcotest.(check (float 1e-9))

let test_summarize_known () =
  let s = Stats.summarize [ 1.; 2.; 3.; 4.; 5. ] in
  feq "mean" 3. s.Stats.mean;
  feq "median" 3. s.Stats.median;
  feq "min" 1. s.Stats.min;
  feq "max" 5. s.Stats.max;
  feq "stddev" (sqrt 2.5) s.Stats.stddev;
  Alcotest.(check int) "count" 5 s.Stats.count

let test_summarize_singleton () =
  let s = Stats.summarize [ 7. ] in
  feq "mean" 7. s.Stats.mean;
  feq "stddev" 0. s.Stats.stddev;
  feq "p90" 7. s.Stats.p90

let test_summarize_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty") (fun () ->
      ignore (Stats.summarize []))

let test_quantile_interpolation () =
  let a = [| 0.; 10. |] in
  feq "q=0.5 interpolates" 5. (Stats.quantile a 0.5);
  feq "q=0" 0. (Stats.quantile a 0.);
  feq "q=1" 10. (Stats.quantile a 1.)

let test_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 in
  Alcotest.(check bool) "brackets p" true (lo < 0.5 && hi > 0.5);
  Alcotest.(check bool) "within [0,1]" true (lo >= 0. && hi <= 1.);
  let lo0, _ = Stats.wilson_interval ~successes:0 ~trials:20 in
  feq "zero successes floor" 0. lo0;
  let _, hi1 = Stats.wilson_interval ~successes:20 ~trials:20 in
  Alcotest.(check bool) "full successes ceiling" true (hi1 <= 1.)

let test_fit_exact_power_law () =
  let pairs = List.map (fun x -> (x, 3. *. (x ** 0.5))) [ 10.; 100.; 1000.; 10000. ] in
  let f = Fit.power_law pairs in
  feq "exponent" 0.5 f.Fit.exponent;
  Alcotest.(check bool) "r2 = 1" true (f.Fit.r2 > 0.999999);
  feq "prediction" (3. *. sqrt 50.) (Fit.predict f 50.)

let test_fit_negative_exponent () =
  let pairs = List.map (fun x -> (x, 7. /. (x ** 1.5))) [ 0.3; 0.5; 0.7; 1.0 ] in
  let f = Fit.power_law pairs in
  feq "exponent" (-1.5) f.Fit.exponent

let test_fit_divided_polylog () =
  (* y = x^0.5 * ln^2.5 x: dividing recovers the clean exponent. *)
  let pairs =
    List.map (fun x -> (x, (x ** 0.5) *. (Float.log x ** 2.5))) [ 64.; 256.; 1024.; 4096. ]
  in
  let f = Fit.power_law_divided_polylog ~log_power:2.5 pairs in
  feq "exponent" 0.5 f.Fit.exponent

let test_fit_rejects_bad_input () =
  Alcotest.check_raises "one point" (Invalid_argument "Fit.power_law: need at least 2 points")
    (fun () -> ignore (Fit.power_law [ (1., 1.) ]));
  Alcotest.check_raises "non-positive" (Invalid_argument "Fit.power_law: non-positive data")
    (fun () -> ignore (Fit.power_law [ (1., 1.); (2., -3.) ]))

let test_table_render () =
  let s = Table.render ~headers:[ "a"; "bb" ] ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ] () in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  List.iter
    (fun cell ->
      Alcotest.(check bool) (cell ^ " present") true
        (Astring.String.is_infix ~affix:cell s))
    [ "a"; "bb"; "1"; "22"; "333"; "4" ]

let test_table_markdown () =
  let s = Table.render_markdown ~headers:[ "x"; "y" ] ~rows:[ [ "1"; "2" ] ] in
  Alcotest.(check bool) "separator row" true (Astring.String.is_infix ~affix:"|---|---|" s)

let test_fmt_int () =
  Alcotest.(check string) "grouping" "1_234_567" (Table.fmt_int 1234567);
  Alcotest.(check string) "small" "42" (Table.fmt_int 42);
  Alcotest.(check string) "negative" "-1_000" (Table.fmt_int (-1000))

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b")

let test_csv_write_roundtrip () =
  let path = Filename.temp_file "ftc_csv" ".csv" in
  Csv.write ~path ~headers:[ "x"; "y" ] ~rows:[ [ "1"; "a,b" ] ];
  let ic = open_in path in
  let l1 = input_line ic and l2 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "x,y" l1;
  Alcotest.(check string) "row quoted" "1,\"a,b\"" l2

(* -- Influence clouds -- *)

let trace_of events =
  let t = Option.get (Trace.create Trace.Log) in
  List.iter (Trace.add t) events;
  t

let send ~round ~src ~dst ?(delivered = true) () =
  Trace.Send { round; src; dst; bits = 1; delivered }

let test_influence_single_cloud () =
  (* 0 -> 1 -> 2: one initiator, cloud {0,1,2}. *)
  let t = trace_of [ send ~round:0 ~src:0 ~dst:1 (); send ~round:1 ~src:1 ~dst:2 () ] in
  let infl = Influence.of_trace ~n:4 t in
  Alcotest.(check (list int)) "initiators" [ 0 ] infl.Influence.initiators;
  (match infl.Influence.clouds with
  | [ c ] -> Alcotest.(check (list int)) "members in join order" [ 0; 1; 2 ] c.Influence.members
  | _ -> Alcotest.fail "one cloud expected");
  Alcotest.(check int) "one disjoint cloud" 1 (Influence.disjoint_cloud_count infl)

let test_influence_two_disjoint_clouds () =
  let t =
    trace_of
      [
        send ~round:0 ~src:0 ~dst:1 ();
        send ~round:0 ~src:2 ~dst:3 ();
        send ~round:1 ~src:1 ~dst:4 ();
      ]
  in
  let infl = Influence.of_trace ~n:6 t in
  Alcotest.(check (list int)) "two initiators" [ 0; 2 ] (List.sort compare infl.Influence.initiators);
  Alcotest.(check int) "two disjoint clouds" 2 (Influence.disjoint_cloud_count infl)

let test_influence_merge_not_disjoint () =
  (* Clouds of 0 and 2 overlap on node 1. *)
  let t = trace_of [ send ~round:0 ~src:0 ~dst:1 (); send ~round:0 ~src:2 ~dst:1 () ] in
  let infl = Influence.of_trace ~n:4 t in
  Alcotest.(check int) "overlapping clouds count once" 1 (Influence.disjoint_cloud_count infl)

let test_influence_receiver_not_initiator () =
  (* Node 1 receives in round 0 and sends in round 1: not an initiator. *)
  let t = trace_of [ send ~round:0 ~src:0 ~dst:1 (); send ~round:1 ~src:1 ~dst:2 () ] in
  let infl = Influence.of_trace ~n:4 t in
  Alcotest.(check bool) "1 not initiator" false (List.mem 1 infl.Influence.initiators)

let test_influence_dropped_messages_dont_spread () =
  let t = trace_of [ send ~round:0 ~src:0 ~dst:1 ~delivered:false () ] in
  let infl = Influence.of_trace ~n:4 t in
  match infl.Influence.clouds with
  | [ c ] -> Alcotest.(check (list int)) "cloud stays singleton" [ 0 ] c.Influence.members
  | _ -> Alcotest.fail "one cloud expected"

let test_influence_time_respecting () =
  (* 1 -> 2 happens before 0 -> 1, so 2 is not influenced by 0. *)
  let t = trace_of [ send ~round:0 ~src:1 ~dst:2 (); send ~round:1 ~src:0 ~dst:1 () ] in
  let infl = Influence.of_trace ~n:4 t in
  let cloud0 = List.find (fun c -> c.Influence.initiator = 0) infl.Influence.clouds in
  Alcotest.(check bool) "2 not in 0's cloud" false (List.mem 2 cloud0.Influence.members)

let test_deciding_clouds () =
  let t = trace_of [ send ~round:0 ~src:0 ~dst:1 (); send ~round:0 ~src:2 ~dst:3 () ] in
  let infl = Influence.of_trace ~n:5 t in
  let decided = [| false; true; false; false; false |] in
  let deciding = Influence.deciding_clouds infl ~decided in
  Alcotest.(check int) "only 0's cloud decides" 1 (List.length deciding);
  Alcotest.(check int) "initiator 0" 0 (List.hd deciding).Influence.initiator

let qcheck_influence_wellformed =
  (* On arbitrary random traces: every cloud starts at its initiator,
     members are unique, and initiators are exactly the send-before-
     receive nodes. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 3 12 in
      let* len = int_range 0 40 in
      let* events =
        list_repeat len
          (let* round = int_range 0 5 in
           let* src = int_range 0 (n - 1) in
           let* dst = int_range 0 (n - 1) in
           let* delivered = bool in
           return (round, src, dst, delivered))
      in
      return (n, events))
  in
  QCheck.Test.make ~name:"influence clouds well-formed on random traces" ~count:300
    (QCheck.make gen)
    (fun (n, events) ->
      let t = trace_of
          (List.map
             (fun (round, src, dst, delivered) ->
               send ~round ~src ~dst:(if dst = src then (dst + 1) mod n else dst) ~delivered ())
             (List.sort compare events))
      in
      let infl = Influence.of_trace ~n t in
      List.length infl.Influence.clouds = List.length infl.Influence.initiators
      && List.for_all
           (fun c ->
             List.mem c.Influence.initiator c.Influence.members
             && List.length (List.sort_uniq compare c.Influence.members)
                = List.length c.Influence.members)
           infl.Influence.clouds)

let test_clouds_disjoint_predicate () =
  let a = { Influence.initiator = 0; members = [ 0; 1 ] } in
  let b = { Influence.initiator = 2; members = [ 2; 3 ] } in
  let c = { Influence.initiator = 4; members = [ 4; 1 ] } in
  Alcotest.(check bool) "disjoint" true (Influence.clouds_disjoint a b);
  Alcotest.(check bool) "overlap" false (Influence.clouds_disjoint a c)

let () =
  Alcotest.run "analysis"
    [
      ( "stats",
        [
          Alcotest.test_case "summarize" `Quick test_summarize_known;
          Alcotest.test_case "singleton" `Quick test_summarize_singleton;
          Alcotest.test_case "empty" `Quick test_summarize_empty;
          Alcotest.test_case "quantile" `Quick test_quantile_interpolation;
          Alcotest.test_case "wilson" `Quick test_wilson;
        ] );
      ( "fit",
        [
          Alcotest.test_case "exact power law" `Quick test_fit_exact_power_law;
          Alcotest.test_case "negative exponent" `Quick test_fit_negative_exponent;
          Alcotest.test_case "divided polylog" `Quick test_fit_divided_polylog;
          Alcotest.test_case "bad input" `Quick test_fit_rejects_bad_input;
        ] );
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
          Alcotest.test_case "fmt_int" `Quick test_fmt_int;
          Alcotest.test_case "csv escape" `Quick test_csv_escape;
          Alcotest.test_case "csv write" `Quick test_csv_write_roundtrip;
        ] );
      ( "influence",
        [
          Alcotest.test_case "single cloud" `Quick test_influence_single_cloud;
          Alcotest.test_case "two disjoint" `Quick test_influence_two_disjoint_clouds;
          Alcotest.test_case "merge" `Quick test_influence_merge_not_disjoint;
          Alcotest.test_case "receiver not initiator" `Quick test_influence_receiver_not_initiator;
          Alcotest.test_case "drops don't spread" `Quick test_influence_dropped_messages_dont_spread;
          Alcotest.test_case "time respecting" `Quick test_influence_time_respecting;
          Alcotest.test_case "deciding clouds" `Quick test_deciding_clouds;
          Alcotest.test_case "disjoint predicate" `Quick test_clouds_disjoint_predicate;
        ] );
      ("influence-properties", List.map QCheck_alcotest.to_alcotest [ qcheck_influence_wellformed ]);
    ]
