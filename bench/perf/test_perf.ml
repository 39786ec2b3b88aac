(* The layered benchmark's pure helpers: the numbers it reports are only
   as good as these. *)

open Ftc_bench_perf

let close = Alcotest.float 1e-9

let test_quantile () =
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  Alcotest.check close "median, odd count" 3. (Stats.median xs);
  Alcotest.check close "median, even count" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "p0 is the minimum" 1. (Stats.quantile xs 0.);
  Alcotest.check close "p100 is the maximum" 5. (Stats.quantile xs 1.);
  (* type 7: h = (n - 1) p = 3.6 between the 4th and 5th order statistics *)
  Alcotest.check close "p90 interpolates" 4.6 (Stats.quantile xs 0.9);
  Alcotest.check close "single sample" 7. (Stats.quantile [ 7. ] 0.95);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.quantile: no samples") (fun () ->
      ignore (Stats.median []))

let test_iqr () =
  (* 1..9: q1 = 3, q3 = 7 *)
  Alcotest.check close "iqr" 4. (Stats.iqr (List.init 9 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "constant samples" 0. (Stats.iqr [ 2.; 2.; 2. ])

let test_paired_diff () =
  (* Units of very different size, each 10% dearer when on, plus one
     pair hit by a stall: the median keeps 10%, a ratio of sums would
     not. *)
  let pairs = [ (100., 110.); (10., 11.); (1000., 1100.); (50., 55.); (20., 40.) ] in
  let med, spread = Stats.paired_diff_pct pairs in
  Alcotest.check close "median difference" 10. med;
  Alcotest.check close "iqr of the differences" 0. spread;
  let med, _ = Stats.paired_diff_pct [ (10., 9.); (10., 9.5); (10., 9.) ] in
  Alcotest.check close "negative when on is cheaper" (-10.) med

let test_self_time () =
  Alcotest.check close "no children" 10. (Stats.self_time ~start:0. ~stop:10. []);
  Alcotest.check close "disjoint children" 5.
    (Stats.self_time ~start:0. ~stop:10. [ (1., 3.); (6., 9.) ]);
  Alcotest.check close "overlapping children count once" 4.
    (Stats.self_time ~start:0. ~stop:10. [ (1., 5.); (3., 7.) ]);
  Alcotest.check close "children clipped to the parent" 7.
    (Stats.self_time ~start:0. ~stop:10. [ (-5., 2.); (9., 20.) ]);
  Alcotest.check close "fully covered" 0.
    (Stats.self_time ~start:0. ~stop:10. [ (0., 6.); (6., 10.) ])

let test_self_table () =
  let sp = Spans.create () in
  let root = Spans.add sp ~name:"client.request" ~key:1 0. 10. in
  ignore (Spans.add sp ~parent:root ~name:"supervisor.service" ~key:1 2. 8.);
  ignore (Spans.add sp ~parent:root ~name:"server.reply" ~key:1 8. 9.);
  let rows = Spans.self_table (Spans.spans sp) in
  let self name = (List.find (fun (r : Spans.row) -> r.layer = name) rows).self_ms in
  Alcotest.check close "root keeps what its children leave" 3. (self "client.request");
  Alcotest.check close "leaf self time is its duration" 6. (self "supervisor.service");
  Alcotest.(check string) "heaviest first" "supervisor.service" (List.hd rows).layer

let test_span_json () =
  let sp = Spans.create () in
  ignore (Spans.add sp ~name:"verify.run" ~key:0 1.5 2.25);
  List.iter
    (fun s ->
      Alcotest.(check bool) "round trip" true (Spans.of_json (Spans.to_json s) = Some s))
    (Spans.spans sp)

(* A synthetic ticket: the server clock runs 1000 ms behind the client's
   and stamps Admitted 3 ms into a symmetric 6 ms submit/Accepted round
   trip, so the offset maps the ring stamp onto the midpoint. *)
let test_clock_alignment () =
  let sample ~sent ~rtt = (sent, sent +. rtt, sent +. (rtt /. 2.) -. 1000.) in
  let off =
    Stats.clock_offset
      [ sample ~sent:100. ~rtt:6.; sample ~sent:200. ~rtt:4.; sample ~sent:300. ~rtt:8. ]
  in
  Alcotest.check close "offset" 1000. off;
  (* One ticket whose Accepted was read late must not move the median. *)
  let skewed =
    Stats.clock_offset [ sample ~sent:100. ~rtt:6.; sample ~sent:200. ~rtt:4.; (300., 390., -697.) ]
  in
  Alcotest.check close "robust to one slow read" 1000. skewed

let () =
  Alcotest.run "bench-perf"
    [
      ( "stats",
        [ Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "iqr" `Quick test_iqr;
          Alcotest.test_case "median paired difference" `Quick test_paired_diff;
          Alcotest.test_case "self time subtraction" `Quick test_self_time;
          Alcotest.test_case "ring/client clock alignment" `Quick test_clock_alignment ] );
      ( "spans",
        [ Alcotest.test_case "self-time table" `Quick test_self_table;
          Alcotest.test_case "json round trip" `Quick test_span_json ] );
    ]
