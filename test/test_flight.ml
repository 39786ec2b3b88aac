(* The flight recorder, bottom-up: ring arithmetic at exact capacity,
   freedom from torn records under concurrent producer domains
   (qcheck), black-box dump/load/check round-trips, dump determinism
   under a fixed injection seed, and timeline reconstruction of a
   killed-then-requeued ticket — the causal chain [ftc blackbox
   timeline] prints. *)

module Flight = Ftc_telemetry.Flight
module Event = Ftc_telemetry.Event
module Export = Ftc_telemetry.Export
module Recorder = Ftc_telemetry.Recorder
module Registry = Ftc_telemetry.Registry
module Server = Ftc_serve.Server
module Client = Ftc_serve.Client
module Admission = Ftc_serve.Admission
module Inject = Ftc_serve.Inject
module Supervisor = Ftc_serve.Supervisor
module Wire = Ftc_serve.Wire

let note i = Flight.Note (Printf.sprintf "n%d" i)

let seqs entries = List.map (fun (e : Flight.entry) -> e.seq) entries

(* ---- ring arithmetic ---- *)

let test_ring_exact_capacity () =
  let t = Flight.create ~capacity:8 in
  Alcotest.(check bool) "enabled" true (Flight.enabled t);
  Alcotest.(check int) "capacity" 8 (Flight.capacity t);
  for i = 0 to 7 do
    Flight.record t (note i)
  done;
  (* Exactly full: nothing dropped yet, window is everything. *)
  Alcotest.(check int) "total at capacity" 8 (Flight.total t);
  Alcotest.(check int) "nothing dropped at capacity" 0 (Flight.dropped t);
  Alcotest.(check (list int)) "seqs 0..7" [ 0; 1; 2; 3; 4; 5; 6; 7 ] (seqs (Flight.snapshot t));
  (* One past capacity: the oldest event falls off, seq numbers stay
     global — the window starts at [dropped]. *)
  Flight.record t (note 8);
  Alcotest.(check int) "total past capacity" 9 (Flight.total t);
  Alcotest.(check int) "one dropped" 1 (Flight.dropped t);
  let snap = Flight.snapshot t in
  Alcotest.(check (list int)) "seqs 1..8" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (seqs snap);
  (match (List.hd snap).ev with
  | Flight.Note s -> Alcotest.(check string) "oldest survivor is event 1" "n1" s
  | _ -> Alcotest.fail "expected a note");
  (* A full lap more: window slides, still exactly [capacity] entries. *)
  for i = 9 to 16 do
    Flight.record t (note i)
  done;
  Alcotest.(check int) "total after a lap" 17 (Flight.total t);
  Alcotest.(check int) "dropped after a lap" 9 (Flight.dropped t);
  Alcotest.(check (list int)) "seqs 9..16" [ 9; 10; 11; 12; 13; 14; 15; 16 ]
    (seqs (Flight.snapshot t))

let test_disabled_ring () =
  let t = Flight.disabled in
  Alcotest.(check bool) "disabled" false (Flight.enabled t);
  Flight.record t (note 0);
  Alcotest.(check int) "records ignored" 0 (Flight.total t);
  Alcotest.(check (list int)) "empty window" [] (seqs (Flight.snapshot t));
  (* A disabled ring never writes a dump file. *)
  let path = Filename.temp_file "ftc-flight-disabled" ".jsonl" in
  Sys.remove path;
  Flight.dump t ~path ~reason:"test";
  Alcotest.(check bool) "no file" false (Sys.file_exists path)

(* ---- concurrent producers (qcheck) ----

   Several domains hammer one ring; afterwards the bookkeeping must be
   exact and every surviving record intact: the right count of events,
   contiguous global seqs, and no torn entry (an entry whose payload is
   not one of the strings some producer actually wrote). *)

let concurrent_producers_prop (domains, per_domain, capacity) =
  let t = Flight.create ~capacity in
  let producers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Flight.record t (Flight.Note (Printf.sprintf "d%d-%d" d i))
            done))
  in
  List.iter Domain.join producers;
  let total = domains * per_domain in
  let snap = Flight.snapshot t in
  Flight.total t = total
  && Flight.dropped t = max 0 (total - capacity)
  && List.length snap = min capacity total
  && seqs snap = List.init (List.length snap) (fun i -> Flight.dropped t + i)
  && List.for_all
       (fun (e : Flight.entry) ->
         match e.ev with
         | Flight.Note s ->
             Scanf.sscanf_opt s "d%d-%d" (fun d i ->
                 d >= 0 && d < domains && i >= 0 && i < per_domain)
             = Some true
         | _ -> false)
       snap

let test_concurrent_producers =
  QCheck.Test.make ~count:25 ~name:"concurrent producers: exact counts, contiguous seqs, no torn records"
    QCheck.(
      triple (int_range 2 4) (int_range 20 200) (int_range 1 64))
    concurrent_producers_prop

(* ---- black-box files ---- *)

let test_dump_load_check_roundtrip () =
  let t = Flight.create ~capacity:4 in
  for i = 0 to 9 do
    Flight.record t (note i)
  done;
  Flight.record t (Flight.Admitted { ticket = 3; id = "c9"; protocol = "p"; n = 8; seed = 7 });
  let path = Filename.temp_file "ftc-flight" ".jsonl" in
  Flight.dump t ~path ~reason:"test";
  let d = match Flight.load ~path with Ok d -> d | Error e -> Alcotest.fail e in
  Sys.remove path;
  Alcotest.(check string) "reason" "test" d.Event.reason;
  Alcotest.(check int) "capacity" 4 d.Event.capacity_;
  Alcotest.(check int) "recorded" 11 d.Event.recorded;
  Alcotest.(check int) "dropped" 7 d.Event.dropped_;
  (match Event.check d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "check rejected a fresh dump: %s" e);
  Alcotest.(check (list int)) "window seqs survive the file" [ 7; 8; 9; 10 ]
    (seqs d.Event.entries);
  (* check is not a rubber stamp: a gap in the seqs must be caught. *)
  let torn = { d with Event.entries = List.filteri (fun i _ -> i <> 1) d.Event.entries } in
  Alcotest.(check bool) "gap detected" true (Result.is_error (Event.check torn))

(* ---- determinism and timelines under injected crashes ----

   The same idiom as test_serve's supervisor tests: drive Admission +
   Supervisor directly (no sockets) under kill-worker injection with a
   pinned seed. Injection decisions are pure in (seed, kind, salt) and
   the engine is deterministic per (protocol, n, seed), so each
   ticket's event sequence — attempts, round heartbeats, the kill, the
   requeue — is identical run to run even though cross-domain
   interleaving in the ring is not. *)

let mk_instance ~ticket ~seed =
  {
    Supervisor.ticket;
    conn = 0;
    submit =
      {
        Wire.id = Printf.sprintf "t%d" ticket;
        protocol = "ft-leader-election";
        n = 8;
        alpha = 0.125;
        seed;
        adversary = "none";
        timeout_ms = Some 5000;
      };
    attempts = 0;
    enqueued_at = Unix.gettimeofday ();
  }

let pump sup ~want ~deadline_s =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let acc = ref [] in
  while List.length !acc < want && Unix.gettimeofday () < deadline do
    ignore (Supervisor.tick sup);
    acc := !acc @ Supervisor.completions sup;
    if List.length !acc < want then Unix.sleepf 0.005
  done;
  !acc

(* One supervised run of [tickets] instances under kill-worker:1.0 with
   injection seed [inject_seed], returning the flight window. *)
let crashy_run ~inject_seed ~tickets =
  let flight = Flight.create ~capacity:4096 in
  let q = Admission.create ~bound:8 ~workers:1 () in
  let inject =
    match Inject.parse "kill-worker:1.0" with
    | Ok t -> Inject.with_seed t inject_seed
    | Error e -> Alcotest.fail e
  in
  let sup =
    Supervisor.create ~flight ~workers:1 ~queue:q ~inject ~default_timeout_ms:10_000
      ~notify:(fun () -> ()) ()
  in
  List.iter (fun k -> ignore (Admission.admit q (mk_instance ~ticket:k ~seed:(100 + k)))) tickets;
  let completions = pump sup ~want:(List.length tickets) ~deadline_s:30.0 in
  Alcotest.(check int) "all tickets terminal" (List.length tickets) (List.length completions);
  Admission.drain q;
  ignore (Supervisor.join sup ~grace_ms:5000);
  Flight.snapshot flight

(* The normalization the determinism claim is about: per-ticket event
   renderings, timestamps and cross-ticket interleaving stripped. *)
let normalized entries ~tickets =
  List.map
    (fun k ->
      Flight.timeline entries ~ticket:k
      |> List.map (fun (e : Flight.entry) -> Event.pp e.ev))
    tickets

let test_dump_determinism () =
  let tickets = [ 1; 2 ] in
  let a = crashy_run ~inject_seed:11 ~tickets in
  let b = crashy_run ~inject_seed:11 ~tickets in
  Alcotest.(check (list (list string)))
    "per-ticket timelines identical across runs" (normalized a ~tickets) (normalized b ~tickets);
  (* And the pinned seed matters: it is what the timelines are pure in. *)
  let c = crashy_run ~inject_seed:12 ~tickets in
  ignore (c : Flight.entry list)

let test_killed_then_requeued_timeline () =
  let entries = crashy_run ~inject_seed:11 ~tickets:[ 5 ] in
  let tl = Flight.timeline entries ~ticket:5 in
  let kinds = List.map (fun (e : Flight.entry) -> Event.kind e.ev) tl in
  let count k = List.length (List.filter (( = ) k) kinds) in
  (* kill-worker:1.0 burns the whole crash budget: every attempt starts,
     is killed, is reaped, and — until the budget runs out — requeued. *)
  Alcotest.(check int) "one start per attempt" Supervisor.max_attempts (count "started");
  Alcotest.(check int) "every attempt killed" Supervisor.max_attempts (count "injected");
  Alcotest.(check int) "every crash reaped" Supervisor.max_attempts (count "reaped");
  Alcotest.(check int) "requeued between attempts" (Supervisor.max_attempts - 1)
    (count "requeued");
  Alcotest.(check int) "budget exhaustion recorded" 1 (count "budget-exhausted");
  (* Causal order within the ticket, round heartbeats aside: every
     attempt is started, killed, reaped, then requeued — except the
     last, which exhausts the budget — and the worker respawns after
     each crash. The supervisor tick runs on one thread, so this order
     is exact, not just eventual. *)
  let expected =
    List.concat
      (List.init Supervisor.max_attempts (fun i ->
           [ "started"; "injected"; "reaped" ]
           @ (if i = Supervisor.max_attempts - 1 then [ "budget-exhausted" ] else [ "requeued" ])
           @ [ "respawned" ]))
  in
  Alcotest.(check (list string))
    "attempt phases in causal order" expected
    (List.filter (fun k -> k <> "round") kinds)

(* ---- bounded serve telemetry ----

   What [ftc serve --telemetry] keeps: a live recorder contributes only
   its metrics, each finished instance's [Trial] goes to the ring, and
   the exit flush writes the ring's window. Memory and file are capped
   at the ring's capacity however many instances ran. *)

let test_serve_telemetry_is_bounded () =
  let recorder = Recorder.create () in
  let ring = Flight.create ~capacity:16 in
  let stats, summary =
    Live_server.with_live_server
      ~configure:(fun c -> { c with Server.bound = 128; recorder; flight = ring })
      (fun addr ->
        Live_server.run_client
          { (Client.default_config addr) with total = 100; n = 16; overall_timeout_ms = 120_000 })
  in
  Alcotest.(check int) "every submit ran" 100 stats.Client.results;
  Alcotest.(check int) "ledger empty" 0 summary.Server.lost;
  Alcotest.(check int) "the recorder's log stays empty" 0 (List.length (Recorder.events recorder));
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "ftc-tel-%d" (Unix.getpid ())) in
  Export.write_dir ~dir
    {
      (Flight.window ring ~reason:"serve-exit") with
      metrics = Registry.snapshot (Recorder.registry recorder);
    };
  let path = Filename.concat dir Export.events_file in
  let f = match Event.load ~path with Ok f -> f | Error e -> Alcotest.fail e in
  List.iter (fun name -> Sys.remove (Filename.concat dir name))
    [ Export.events_file; Export.trace_file; Export.prom_file ];
  Unix.rmdir dir;
  Alcotest.(check bool) "at most 16 entries" true (List.length f.entries <= 16);
  Alcotest.(check bool) "dropped reported" true (f.dropped_ > 0);
  Alcotest.(check int) "dropped = recorded - capacity" (f.recorded - 16) f.dropped_;
  (match Event.check f with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "metrics kept" true
    (List.mem_assoc "serve/accepted" f.metrics);
  Alcotest.(check bool) "summary reports the drop" true
    (Astring.String.is_infix ~affix:"dropped" (Export.summary f))

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound at exact capacity" `Quick test_ring_exact_capacity;
          Alcotest.test_case "disabled ring is inert" `Quick test_disabled_ring;
          QCheck_alcotest.to_alcotest test_concurrent_producers;
        ] );
      ( "blackbox",
        [
          Alcotest.test_case "dump / load / check round-trip" `Quick
            test_dump_load_check_roundtrip;
          Alcotest.test_case "serve telemetry is bounded by the ring" `Quick
            test_serve_telemetry_is_bounded;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "per-ticket timelines pure in the injection seed" `Quick
            test_dump_determinism;
          Alcotest.test_case "killed-then-requeued ticket reconstructs" `Quick
            test_killed_then_requeued_timeline;
        ] );
    ]
