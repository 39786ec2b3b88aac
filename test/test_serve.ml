(* The serve stack, bottom-up: framing (including torn frames and the
   poisoned decoder), the wire codec, bounded admission, the supervised
   worker pool under injected crashes, the client's backoff ladder, and
   one end-to-end server-in-a-domain run over a temp Unix socket. *)

module Json = Ftc_journal.Json
module Frame = Ftc_serve.Frame
module Wire = Ftc_serve.Wire
module Admission = Ftc_serve.Admission
module Inject = Ftc_serve.Inject
module Supervisor = Ftc_serve.Supervisor
module Server = Ftc_serve.Server
module Client = Ftc_serve.Client
module Top = Ftc_serve.Top
module Transport = Ftc_transport.Transport

(* ---- framing ---- *)

let sample_doc =
  (* Control characters, multi-byte UTF-8 and escapes in one payload:
     what actually crosses the wire when a detail string is ugly. *)
  Json.Obj
    [
      ("op", Json.String "rejected");
      ("reason", Json.String "ctl \x00\x01\x1f tab\t quote\" back\\ caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x90\xab");
      ("n", Json.Int 42);
    ]

let expect_none d label =
  match Frame.Decoder.next d with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.failf "%s: got a doc too early" label
  | Error e -> Alcotest.failf "%s: decoder error %s" label e

let expect_doc d label expected =
  match Frame.Decoder.next d with
  | Ok (Some doc) ->
      Alcotest.(check string) label (Json.to_string expected) (Json.to_string doc)
  | Ok None -> Alcotest.failf "%s: no doc" label
  | Error e -> Alcotest.failf "%s: decoder error %s" label e

let test_frame_byte_at_a_time () =
  let frame = Frame.encode sample_doc in
  let d = Frame.Decoder.create () in
  String.iteri
    (fun i c ->
      if i < String.length frame - 1 then begin
        Frame.Decoder.feed_string d (String.make 1 c);
        expect_none d (Printf.sprintf "byte %d" i)
      end
      else Frame.Decoder.feed_string d (String.make 1 c))
    frame;
  expect_doc d "final byte completes the frame" sample_doc;
  Alcotest.(check int) "buffer drained" 0 (Frame.Decoder.buffered d)

let test_frame_torn_at_length_boundary () =
  (* The cut lands inside the 4-byte length prefix itself: 2 bytes
     arrive, then the connection stalls. The decoder must report "no
     frame yet" (not an error) and pick up cleanly when the rest lands. *)
  let frame = Frame.encode sample_doc in
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed_string d (String.sub frame 0 2);
  expect_none d "2 of 4 length bytes";
  Alcotest.(check int) "torn length prefix is buffered" 2 (Frame.Decoder.buffered d);
  Frame.Decoder.feed_string d (String.sub frame 2 (String.length frame - 2));
  expect_doc d "rest of the frame" sample_doc;
  expect_none d "stream empty again";
  Alcotest.(check int) "no residue" 0 (Frame.Decoder.buffered d)

let test_frame_back_to_back () =
  let a = Json.Obj [ ("op", Json.String "ping") ] in
  let b = Json.Obj [ ("op", Json.String "stats") ] in
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed_string d (Frame.encode a ^ Frame.encode b);
  expect_doc d "first of two coalesced frames" a;
  expect_doc d "second of two coalesced frames" b;
  expect_none d "then empty"

let expect_poisoned d label =
  (match Frame.Decoder.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a protocol error" label);
  match Frame.Decoder.next d with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: decoder not poisoned" label

let test_frame_zero_length_poisons () =
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed_string d "\x00\x00\x00\x00";
  expect_poisoned d "zero length"

let test_frame_oversized_length_poisons () =
  let d = Frame.Decoder.create () in
  let len = Frame.max_len + 1 in
  let prefix = Bytes.create 4 in
  Bytes.set_uint8 prefix 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 prefix 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 prefix 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 prefix 3 (len land 0xff);
  Frame.Decoder.feed_string d (Bytes.to_string prefix);
  expect_poisoned d "oversized length"

let test_frame_bad_json_poisons () =
  let d = Frame.Decoder.create () in
  let payload = "{not json" in
  let prefix = Bytes.create 4 in
  Bytes.set_uint8 prefix 0 0;
  Bytes.set_uint8 prefix 1 0;
  Bytes.set_uint8 prefix 2 0;
  Bytes.set_uint8 prefix 3 (String.length payload);
  Frame.Decoder.feed_string d (Bytes.to_string prefix ^ payload);
  expect_poisoned d "malformed JSON payload"

(* ---- wire codec ---- *)

let submit_fixture =
  {
    Wire.id = "c7";
    protocol = "ft-leader-election";
    n = 64;
    alpha = 0.125;
    seed = 12345;
    adversary = "none";
    timeout_ms = Some 5000;
  }

let test_wire_request_roundtrip () =
  List.iter
    (fun (label, r) ->
      match Wire.request_of_json (Wire.request_to_json r) with
      | Ok r' -> Alcotest.(check bool) label true (r = r')
      | Error e -> Alcotest.failf "%s: %s" label e)
    [
      ("submit", Wire.Submit submit_fixture);
      ("submit no timeout", Wire.Submit { submit_fixture with timeout_ms = None });
      ("ping", Wire.Ping);
      ("stats", Wire.Stats);
      ("introspect", Wire.Introspect);
    ]

let test_wire_reply_roundtrip () =
  List.iter
    (fun (label, r) ->
      match Wire.reply_of_json (Wire.reply_to_json r) with
      | Ok r' -> Alcotest.(check bool) label true (r = r')
      | Error e -> Alcotest.failf "%s: %s" label e)
    [
      ("accepted", Wire.Accepted { id = "a"; ticket = 9 });
      ("shed", Wire.Shed { id = "b"; retry_after_ms = 40; draining = true });
      ("rejected", Wire.Rejected { id = "c"; reason = "n out of range \xe2\x82\xac" });
      ( "result",
        Wire.Result
          { id = "d"; ticket = 3; ok = false; detail = "leader\tdisagrees"; rounds = 12; msgs = 480; bits = 9600; attempts = 2 } );
      ("failed", Wire.Failed { id = "e"; ticket = 4; class_ = Wire.failed_crashed; detail = "3 attempts" });
      ("pong", Wire.Pong { uptime_ms = 123456; version = Wire.protocol_version });
      ("stats reply", Wire.Stats_reply [ ("serve/accepted", 10); ("serve/sheds", 2) ]);
      ( "introspect reply",
        Wire.Introspect_reply
          {
            uptime_ms = 987;
            version = Wire.protocol_version;
            pending = 3;
            open_ = 5;
            peak_open = 9;
            bound = 64;
            ewma_ms = 42.5;
            lat_count = 17;
            p50_ms = 12;
            p90_ms = 60;
            p99_ms = 110;
            workers =
              [
                { w_idx = 0; w_busy = true; w_ticket = 7; w_round = 4; w_respawns = 1 };
                { w_idx = 1; w_busy = false; w_ticket = -1; w_round = 0; w_respawns = 0 };
              ];
            injections = [ ("kill-worker", 2); ("delay-frame", 1) ];
            counters = [ ("accepted", 10); ("results", 8) ];
          } );
    ]

let test_wire_pong_backward_compat () =
  (* A version-1 server sends a bare pong; the newer fields decode as 0
     so old captures and mixed fleets keep working. *)
  match Wire.reply_of_json (Json.Obj [ ("op", Json.String "pong") ]) with
  | Ok (Wire.Pong { uptime_ms; version }) ->
      Alcotest.(check int) "uptime defaults" 0 uptime_ms;
      Alcotest.(check int) "version defaults" 0 version
  | Ok _ -> Alcotest.fail "bare pong decoded as something else"
  | Error e -> Alcotest.failf "bare pong rejected: %s" e

let test_wire_rejects_unknown () =
  (match Wire.request_of_json (Json.Obj [ ("op", Json.String "evict") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown request op accepted");
  match Wire.reply_of_json (Json.Obj [ ("op", Json.String "accepted") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted reply without fields decoded"

let test_wire_through_frame () =
  (* The full stack a reply travels: wire encode → frame → byte stream →
     decoder → wire decode, with awkward strings in the payload. *)
  let reply =
    Wire.Failed { id = "x\x01y"; ticket = 77; class_ = Wire.failed_exception; detail = "caf\xc3\xa9 \x00 end" }
  in
  let d = Frame.Decoder.create () in
  Frame.Decoder.feed_string d (Frame.encode (Wire.reply_to_json reply));
  match Frame.Decoder.next d with
  | Ok (Some doc) -> (
      match Wire.reply_of_json doc with
      | Ok r -> Alcotest.(check bool) "reply survives the frame" true (r = reply)
      | Error e -> Alcotest.failf "decode: %s" e)
  | _ -> Alcotest.fail "frame did not round-trip"

(* ---- admission ---- *)

let test_admission_bound_and_shed () =
  let q = Admission.create ~bound:2 ~workers:1 () in
  Alcotest.(check bool) "first admitted" true (Admission.admit q 1 = Admission.Admitted);
  Alcotest.(check bool) "second admitted" true (Admission.admit q 2 = Admission.Admitted);
  (match Admission.admit q 3 with
  | Admission.Shed_full hint -> Alcotest.(check bool) "hint positive" true (hint >= 1)
  | _ -> Alcotest.fail "third submit not shed");
  Alcotest.(check int) "open = bound" 2 (Admission.open_count q);
  Alcotest.(check int) "peak tracks" 2 (Admission.peak_open q)

let test_admission_requeue_is_bound_neutral () =
  let q = Admission.create ~bound:2 ~workers:1 () in
  ignore (Admission.admit q 10);
  ignore (Admission.admit q 11);
  let taken = Admission.try_take q in
  Alcotest.(check (option int)) "front first" (Some 10) taken;
  Alcotest.(check int) "take keeps it open" 2 (Admission.open_count q);
  Admission.requeue q 10;
  Alcotest.(check int) "requeue keeps it open" 2 (Admission.open_count q);
  (match Admission.admit q 12 with
  | Admission.Shed_full _ -> ()
  | _ -> Alcotest.fail "requeue created admission capacity");
  Alcotest.(check (option int)) "requeued lands at the front" (Some 10) (Admission.try_take q)

let test_admission_drain () =
  let q = Admission.create ~bound:4 ~workers:1 () in
  ignore (Admission.admit q 1);
  Admission.drain q;
  Alcotest.(check bool) "draining" true (Admission.draining q);
  (match Admission.admit q 2 with
  | Admission.Shed_draining _ -> ()
  | _ -> Alcotest.fail "admission still open while draining");
  Alcotest.(check bool) "not yet quiescent" false (Admission.quiescent q);
  (match Admission.take q with
  | Some 1 -> ()
  | _ -> Alcotest.fail "draining queue still serves admitted work");
  Admission.complete q ~service_ms:3.0;
  Alcotest.(check bool) "quiescent once served" true (Admission.quiescent q);
  Alcotest.(check (option int)) "take signals exit" None (Admission.take q)

(* [on_admit] is where the server records [Admitted]: once per admitted
   submit, never for a shed one. *)
let test_admission_on_admit () =
  let q = Admission.create ~bound:1 ~workers:1 () in
  let calls = ref 0 in
  let admit x = Admission.admit ~on_admit:(fun () -> incr calls) q x in
  Alcotest.(check bool) "admitted" true (admit 1 = Admission.Admitted);
  Alcotest.(check int) "ran once" 1 !calls;
  (match admit 2 with
  | Admission.Shed_full _ -> ()
  | _ -> Alcotest.fail "second submit not shed");
  Admission.drain q;
  (match admit 3 with
  | Admission.Shed_draining _ -> ()
  | _ -> Alcotest.fail "admission still open while draining");
  Alcotest.(check int) "not run for sheds" 1 !calls

(* ---- injection determinism ---- *)

let test_inject_parse_and_describe () =
  (match Inject.parse "none" with
  | Ok t -> Alcotest.(check bool) "none inactive" false (Inject.active t)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (name, _) ->
      match Inject.parse name with
      | Ok t -> Alcotest.(check bool) (name ^ " active") true (Inject.active t)
      | Error e -> Alcotest.failf "preset %s: %s" name e)
    Inject.catalog;
  (match Inject.parse "kill-worker:0.25,delay-frame:0.5" with
  | Ok t ->
      Alcotest.(check (float 1e-9)) "kw rate" 0.25 (Inject.rate t Inject.Kill_worker);
      Alcotest.(check (float 1e-9)) "df rate" 0.5 (Inject.rate t Inject.Delay_frame);
      Alcotest.(check (float 1e-9)) "unset rate" 0.0 (Inject.rate t Inject.Drop_conn);
      (match Inject.parse (Inject.describe t) with
      | Ok t' -> Alcotest.(check string) "describe round-trips" (Inject.describe t) (Inject.describe t')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  (match Inject.parse "kill-worker:1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rate > 1 accepted");
  match Inject.parse "set-on-fire:0.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted"

let test_inject_deterministic_and_independent () =
  let t =
    match Inject.parse "kill-worker:0.5,drop-conn:0.5" with
    | Ok t -> Inject.with_seed t 42
    | Error e -> Alcotest.fail e
  in
  let fires kind = List.init 256 (fun salt -> Inject.fire t kind ~salt) in
  Alcotest.(check bool) "pure in (seed, kind, salt)" true (fires Inject.Kill_worker = fires Inject.Kill_worker);
  Alcotest.(check bool)
    "kinds draw independent streams" true
    (fires Inject.Kill_worker <> fires Inject.Drop_conn);
  let hits = List.length (List.filter Fun.id (fires Inject.Kill_worker)) in
  Alcotest.(check bool) "rate 0.5 fires roughly half the time" true (hits > 64 && hits < 192);
  let other = Inject.with_seed t 43 in
  Alcotest.(check bool)
    "seed changes the stream" true
    (List.init 256 (fun salt -> Inject.fire other Inject.Kill_worker ~salt) <> fires Inject.Kill_worker);
  let d = Inject.delay_ms t ~salt:7 in
  Alcotest.(check bool) "delay in [1, 50]" true (d >= 1 && d <= 50);
  Alcotest.(check int) "delay deterministic" d (Inject.delay_ms t ~salt:7)

(* ---- supervisor ---- *)

let mk_instance ~ticket ~seed =
  {
    Supervisor.ticket;
    conn = 0;
    submit = { submit_fixture with id = Printf.sprintf "t%d" ticket; n = 8; seed; timeout_ms = Some 5000 };
    attempts = 0;
    enqueued_at = Unix.gettimeofday ();
  }

(* Pump tick + completions until [want] completions arrive or the
   deadline passes; ticking is what reaps and respawns crashed workers. *)
let pump sup ~want ~deadline_s =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let acc = ref [] in
  while List.length !acc < want && Unix.gettimeofday () < deadline do
    ignore (Supervisor.tick sup);
    acc := !acc @ Supervisor.completions sup;
    if List.length !acc < want then Unix.sleepf 0.005
  done;
  !acc

let test_supervisor_runs_clean_instance () =
  let q = Admission.create ~bound:8 ~workers:1 () in
  let sup =
    Supervisor.create ~workers:1 ~queue:q ~inject:Inject.none ~default_timeout_ms:10_000
      ~notify:(fun () -> ()) ()
  in
  ignore (Admission.admit q (mk_instance ~ticket:1 ~seed:7));
  let completions = pump sup ~want:1 ~deadline_s:20.0 in
  (match completions with
  | [ { Supervisor.inst; outcome = Supervisor.Finished f; _ } ] ->
      Alcotest.(check int) "right ticket" 1 inst.Supervisor.ticket;
      Alcotest.(check int) "one attempt" 1 inst.Supervisor.attempts;
      Alcotest.(check bool) "clean verdict" true f.ok;
      Alcotest.(check bool) "did rounds" true (f.rounds > 0)
  | [ { Supervisor.outcome = o; _ } ] ->
      Alcotest.failf "unexpected outcome %s"
        (match o with
        | Supervisor.Watchdog_expired -> "watchdog"
        | Supervisor.Killed -> "killed"
        | Supervisor.Crash_budget_exhausted d -> "crash budget: " ^ d
        | Supervisor.Exn d -> "exn: " ^ d
        | Supervisor.Finished _ -> assert false)
  | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l));
  Admission.drain q;
  Alcotest.(check bool) "workers join" true (Supervisor.join sup ~grace_ms:5000);
  Alcotest.(check int) "no restarts without injection" 0 (Supervisor.restarts sup)

let test_supervisor_crash_budget () =
  (* kill-worker at rate 1.0: every attempt crashes the worker, so the
     instance must burn through max_attempts requeues and come back as
     Crash_budget_exhausted — with the worker respawned each time. *)
  let q = Admission.create ~bound:8 ~workers:1 () in
  let inject =
    match Inject.parse "kill-worker:1.0" with
    | Ok t -> Inject.with_seed t 1
    | Error e -> Alcotest.fail e
  in
  let sup =
    Supervisor.create ~workers:1 ~queue:q ~inject ~default_timeout_ms:10_000
      ~notify:(fun () -> ()) ()
  in
  ignore (Admission.admit q (mk_instance ~ticket:5 ~seed:11));
  let completions = pump sup ~want:1 ~deadline_s:20.0 in
  (match completions with
  | [ { Supervisor.inst; outcome = Supervisor.Crash_budget_exhausted _; _ } ] ->
      Alcotest.(check int) "all attempts burned" Supervisor.max_attempts inst.Supervisor.attempts
  | [ { Supervisor.outcome = Supervisor.Finished _; _ } ] ->
      Alcotest.fail "instance finished despite kill-worker:1.0"
  | l -> Alcotest.failf "expected crash-budget completion, got %d completions" (List.length l));
  Alcotest.(check bool)
    "worker restarted at least max_attempts - 1 times" true
    (Supervisor.restarts sup >= Supervisor.max_attempts - 1);
  Alcotest.(check int) "exactly one completion: nothing lost, nothing duplicated" 0
    (List.length (Supervisor.completions sup));
  Alcotest.(check int) "queue settled" 0 (Admission.open_count q);
  Admission.drain q;
  ignore (Supervisor.join sup ~grace_ms:5000)

(* ---- client backoff ladder ---- *)

let test_transport_ladder () =
  let c = Transport.default_config in
  Alcotest.(check (list int)) "doubling ladder, capped" [ 2; 4; 8; 8; 8 ]
    (List.init 5 (Transport.nth_timeout c))

(* ---- end to end ---- *)

let test_end_to_end () =
  let stats, summary =
    Live_server.with_live_server (fun addr ->
        Live_server.run_client
          { (Client.default_config addr) with total = 8; n = 16; base_seed = 100; overall_timeout_ms = 60_000 })
  in
  Alcotest.(check int) "every submit ran" 8 stats.Client.results;
  Alcotest.(check int) "no model violations" 0 stats.Client.result_violations;
  Alcotest.(check int) "nothing abandoned" 0 stats.Client.abandoned;
  Alcotest.(check int) "client exit 0" 0 (Client.exit_code stats);
  Alcotest.(check int) "server accepted all" 8 summary.Server.accepted;
  Alcotest.(check int) "server replied to all" 8 summary.Server.results;
  Alcotest.(check int) "exactly-one-reply: ledger empty" 0 summary.Server.lost;
  Alcotest.(check int) "server exit 0" 0 (Server.exit_code summary)

(* Admission applies the case rule (0 < alpha <= 1) to the case the
   worker would run: alpha = 0 is rejected before it is ever accepted,
   and alpha = 1 — no crash budget at all — runs to a result. *)
let test_admission_uses_case_rule () =
  let (zero, one), summary =
    Live_server.with_live_server (fun addr ->
        let submit alpha =
          Live_server.run_client
            { (Client.default_config addr) with total = 1; n = 16; alpha; overall_timeout_ms = 60_000 }
        in
        let zero = submit 0. in
        let one = submit 1. in
        (zero, one))
  in
  Alcotest.(check int) "alpha 0 rejected" 1 zero.Client.rejected;
  Alcotest.(check int) "alpha 0 never accepted" 0 zero.Client.accepted;
  Alcotest.(check int) "alpha 1 accepted" 1 one.Client.accepted;
  Alcotest.(check int) "alpha 1 ran to a result" 1 one.Client.results;
  Alcotest.(check int) "alpha 1 not rejected" 0 one.Client.rejected;
  Alcotest.(check int) "server rejected one" 1 summary.Server.rejected;
  Alcotest.(check int) "server replied to the other" 1 summary.Server.results

(* The ring's causal order per ticket: [Admitted] is recorded before a
   worker can take the instance, so its seq is below that of the
   ticket's first [Started] — on every ticket, however the domains
   interleave. The bound admits all 200 at once, so nothing is shed and
   the check covers every submit. *)
let test_admitted_precedes_started () =
  let flight = Ftc_telemetry.Flight.create ~capacity:(1 lsl 16) in
  let stats, summary =
    Live_server.with_live_server
      ~configure:(fun c -> { c with Server.bound = 256; flight })
      (fun addr ->
        Live_server.run_client
          { (Client.default_config addr) with total = 200; n = 16; overall_timeout_ms = 120_000 })
  in
  Alcotest.(check int) "every submit ran" 200 stats.Client.results;
  Alcotest.(check int) "ledger empty" 0 summary.Server.lost;
  Alcotest.(check int) "the ring kept everything" 0 (Ftc_telemetry.Flight.dropped flight);
  let admitted = Hashtbl.create 256 and started = Hashtbl.create 256 in
  List.iter
    (fun (e : Ftc_telemetry.Flight.entry) ->
      match e.ev with
      | Ftc_telemetry.Flight.Admitted { ticket; _ } -> Hashtbl.replace admitted ticket e.seq
      | Ftc_telemetry.Flight.Started { ticket; _ } ->
          if not (Hashtbl.mem started ticket) then Hashtbl.replace started ticket e.seq
      | _ -> ())
    (Ftc_telemetry.Flight.snapshot flight);
  Alcotest.(check int) "200 tickets admitted" 200 (Hashtbl.length admitted);
  Hashtbl.iter
    (fun ticket adm ->
      match Hashtbl.find_opt started ticket with
      | None -> Alcotest.failf "ticket %d never started" ticket
      | Some st ->
          if adm >= st then
            Alcotest.failf "ticket %d: Admitted seq %d is not below Started seq %d" ticket adm st)
    admitted

(* ---- ftc top ---- *)

let test_top_spark () =
  Alcotest.(check string) "empty series" "" (Top.spark []);
  Alcotest.(check string) "flat zero floors" "\xe2\x96\x81\xe2\x96\x81" (Top.spark [ 0; 0 ]);
  (* Monotone series renders monotone glyphs, max hits the tallest block. *)
  let s = Top.spark [ 0; 2; 4; 8 ] in
  Alcotest.(check int) "one glyph per point" (4 * 3) (String.length s);
  Alcotest.(check string) "max is the full block" "\xe2\x96\x88"
    (String.sub s (String.length s - 3) 3)

let test_top_against_live_server () =
  (* The acceptance e2e: a real server in its own domain, [ftc top]'s
     engine polling it over the socket, frames captured through
     [config.out]. Two samples so the second has a rate/restart
     baseline; the client load in between gives the counters motion. *)
  let (), _summary =
    Live_server.with_live_server (fun addr ->
        ignore
          (Live_server.run_client
             { (Client.default_config addr) with total = 4; n = 16; base_seed = 7; overall_timeout_ms = 60_000 });
        let frames = Buffer.create 1024 in
        let tcfg =
          {
            (Top.default_config addr) with
            Top.interval_ms = 50;
            iterations = 2;
            mode = Top.Raw;
            out = Buffer.add_string frames;
          }
        in
        (match Top.run tcfg with
        | Ok n -> Alcotest.(check int) "two samples" 2 n
        | Error e -> Alcotest.failf "top: %s" e);
        let out = Buffer.contents frames in
        let has needle =
          Alcotest.(check bool) (Printf.sprintf "dashboard mentions %S" needle) true
            (Astring.String.is_infix ~affix:needle out)
        in
        has "ftc top -- ";
        has (Printf.sprintf "protocol v%d" Wire.protocol_version);
        (* Both workers are listed with live state, and the 4 terminal replies
           the client collected show up in the counters. *)
        has "w0";
        has "w1";
        has "results=4";
        has "inject  ";
        has "latency p50";
        (* JSON mode emits the raw introspect reply — the stable machine
           surface — one line per sample, and it must decode back. *)
        let json_lines = Buffer.create 1024 in
        let jcfg =
          { tcfg with Top.iterations = 1; mode = Top.Json; out = Buffer.add_string json_lines }
        in
        (match Top.run jcfg with
        | Ok n -> Alcotest.(check int) "one json sample" 1 n
        | Error e -> Alcotest.failf "top --json: %s" e);
        (match Json.of_string (String.trim (Buffer.contents json_lines)) with
        | Error e -> Alcotest.failf "top --json emitted bad JSON: %s" e
        | Ok j -> (
            match Wire.reply_of_json j with
            | Ok (Wire.Introspect_reply i) ->
                Alcotest.(check int) "two workers in view" 2 (List.length i.Wire.workers)
            | Ok _ -> Alcotest.fail "top --json line is not an introspect reply"
            | Error e -> Alcotest.failf "top --json line does not decode: %s" e)))
  in
  ()

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "byte-at-a-time round-trip" `Quick test_frame_byte_at_a_time;
          Alcotest.test_case "torn at the length boundary" `Quick test_frame_torn_at_length_boundary;
          Alcotest.test_case "coalesced frames" `Quick test_frame_back_to_back;
          Alcotest.test_case "zero length poisons" `Quick test_frame_zero_length_poisons;
          Alcotest.test_case "oversized length poisons" `Quick test_frame_oversized_length_poisons;
          Alcotest.test_case "bad JSON poisons" `Quick test_frame_bad_json_poisons;
        ] );
      ( "wire",
        [
          Alcotest.test_case "requests round-trip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "replies round-trip" `Quick test_wire_reply_roundtrip;
          Alcotest.test_case "bare pong decodes (v1 compat)" `Quick test_wire_pong_backward_compat;
          Alcotest.test_case "unknown ops rejected" `Quick test_wire_rejects_unknown;
          Alcotest.test_case "reply through a frame" `Quick test_wire_through_frame;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bound sheds" `Quick test_admission_bound_and_shed;
          Alcotest.test_case "requeue is bound-neutral" `Quick test_admission_requeue_is_bound_neutral;
          Alcotest.test_case "drain" `Quick test_admission_drain;
          Alcotest.test_case "on_admit only when admitted" `Quick test_admission_on_admit;
        ] );
      ( "inject",
        [
          Alcotest.test_case "parse and describe" `Quick test_inject_parse_and_describe;
          Alcotest.test_case "deterministic decisions" `Quick test_inject_deterministic_and_independent;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean instance" `Quick test_supervisor_runs_clean_instance;
          Alcotest.test_case "crash budget under kill-worker:1.0" `Quick test_supervisor_crash_budget;
        ] );
      ("backoff", [ Alcotest.test_case "transport ladder" `Quick test_transport_ladder ]);
      ( "end-to-end",
        [
          Alcotest.test_case "serve + client over a unix socket" `Quick test_end_to_end;
          Alcotest.test_case "admission applies the case rule" `Quick
            test_admission_uses_case_rule;
          Alcotest.test_case "Admitted precedes Started on every ticket" `Quick
            test_admitted_precedes_started;
        ] );
      ( "top",
        [
          Alcotest.test_case "sparkline rendering" `Quick test_top_spark;
          Alcotest.test_case "dashboard against a live server" `Quick test_top_against_live_server;
        ] );
    ]
