(* The two serve workloads: a real [ftc serve] child process driven by
   one single-threaded load generator over one Unix-socket connection.

   serve-election is open loop: submit i is due at i / rate whatever
   happened before, and its latency counts from that due time, so a
   stall also delays the submits behind it. serve-agreement is closed
   loop with a fixed window of outstanding submits, which finds the
   front end's capacity on short instances. *)

open Common
module Wire = Ftc_serve.Wire
module Frame = Ftc_serve.Frame
module Admission = Ftc_serve.Admission
module Flight = Ftc_telemetry.Flight

type pacing = Open of float  (** submits per second *) | Closed of int  (** outstanding *)

type spec = {
  protocol : string;
  n : int;
  alpha : float;
  adversary : string;
  pacing : pacing;
  warmup : int;
  digest_units : int;
}

let election =
  {
    protocol = "ft-leader-election";
    n = 48;
    alpha = 0.125;
    adversary = "random";
    pacing = Open 10.;
    warmup = 20;
    digest_units = 20;
  }

let agreement =
  {
    protocol = "ft-agreement";
    n = 48;
    alpha = 0.125;
    adversary = "random";
    pacing = Closed 16;
    warmup = 100;
    digest_units = 200;
  }

(* One server worker per core of the 2-core reference box. *)
let workers = 2
let sample_every = 10

(* -- the server process -- *)

type server = { pid : int; sock : string; out : string; log : string; mutable alive : bool }

let ftc_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let exe = List.fold_left Filename.concat dir [ ".."; ".."; "bin"; "ftc.exe" ] in
  if Sys.file_exists exe then exe
  else failwith ("ftc binary not found at " ^ exe ^ " (build ./bin/ftc.exe first)")

let stop_server s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

let start_server ~flight =
  let base = Printf.sprintf "results/perf-%d" (Unix.getpid ()) in
  let sock = base ^ ".sock" and out = base ^ "-server.out" and log = base ^ "-server.log" in
  let flight_args =
    match flight with
    | None -> []
    | Some (path, capacity) -> [ "--blackbox"; path; "--flight-capacity"; string_of_int capacity ]
  in
  let args =
    [ ftc_exe (); "serve"; "--socket"; sock; "--workers"; string_of_int workers; "--bound"; "64" ]
    @ flight_args
  in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out_fd = fd out and log_fd = fd log in
  let pid =
    Unix.create_process_env (List.hd args) (Array.of_list args) (child_env ()) Unix.stdin
      out_fd log_fd
  in
  Unix.close out_fd;
  Unix.close log_fd;
  let s = { pid; sock; out; log; alive = true } in
  (* However the process ends (a set-up-only child exits as soon as it
     is ready), the server stops and its output files go. *)
  at_exit (fun () ->
      stop_server s;
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ out; log ]);
  s

(* [lost] from the server's final summary line. *)
let summary_lost s =
  In_channel.with_open_bin s.out In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_opt (String.starts_with ~prefix:"serve summary:")
  |> Option.map (String.split_on_char ' ')
  |> Fun.flip Option.bind (List.find_map (fun kv -> Scanf.sscanf_opt kv "lost=%d%!" Fun.id))

(* -- the client -- *)

type client = { fd : Unix.file_descr; dec : Frame.Decoder.t; buf : Bytes.t }

let connect s =
  let deadline = now_ms () +. 10_000. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ -> ()
    | _ ->
        s.alive <- false;
        failwith ("ftc serve exited during start-up; see " ^ s.log));
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> { fd; dec = Frame.Decoder.create (); buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now_ms () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

(* Wait up to [timeout_s] for data, then hand every complete reply to
   [f] with the time it was read. *)
let poll c timeout_s f =
  match Unix.select [ c.fd ] [] [] timeout_s with
  | [], _, _ -> ()
  | _ ->
      let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
      if n = 0 then failwith "server closed the connection";
      let t = now_ms () in
      Frame.Decoder.feed c.dec c.buf 0 n;
      let rec frames () =
        match Frame.Decoder.next c.dec with
        | Ok (Some j) -> (
            match Wire.reply_of_json j with
            | Ok r ->
                f t r;
                frames ()
            | Error e -> failwith ("undecodable reply: " ^ e))
        | Ok None -> ()
        | Error e -> failwith ("bad frame: " ^ e)
      in
      frames ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let ping c =
  Frame.write_fd c.fd (Wire.request_to_json Wire.Ping);
  let pong = ref false in
  let deadline = now_ms () +. 10_000. in
  while (not !pong) && now_ms () < deadline do
    poll c 0.1 (fun _ r -> match r with Wire.Pong _ -> pong := true | _ -> ())
  done;
  if not !pong then failwith "no Pong from ftc serve"

type req = {
  idx : int;
  seed : int;
  due : float;  (** Open loop: the schedule; closed loop: when it was sent. *)
  sent : float;
  mutable accepted : float;
  mutable ticket : int;
  mutable finished : float;
  mutable reply : Wire.reply option;
}

(* Issue submits under [pacing] until [stop] says no more, then wait for
   every outstanding terminal reply. Returns the requests in issue order
   and the start of the schedule. *)
let drive spec c ~tag ~seed_of ~pacing ~stop =
  let by_id = Hashtbl.create 4096 in
  let issued = ref [] and outstanding = ref 0 and next = ref 0 in
  let t0 = now_ms () in
  let due i =
    match pacing with Open rate -> t0 +. (1000. *. float_of_int i /. rate) | Closed _ -> t0
  in
  let more now = match stop with `Count k -> !next < k | `Until t -> now < t in
  let issue now =
    let i = !next in
    incr next;
    let id = tag ^ string_of_int i in
    let r =
      {
        idx = i;
        seed = seed_of i;
        due = (match pacing with Open _ -> due i | Closed _ -> now);
        sent = now;
        accepted = nan;
        ticket = -1;
        finished = nan;
        reply = None;
      }
    in
    Hashtbl.replace by_id id r;
    issued := r :: !issued;
    incr outstanding;
    Frame.write_fd c.fd
      (Wire.request_to_json
         (Wire.Submit
            {
              Wire.id;
              protocol = spec.protocol;
              n = spec.n;
              alpha = spec.alpha;
              seed = r.seed;
              adversary = spec.adversary;
              timeout_ms = None;
            }))
  in
  let on_reply t reply =
    match Option.bind (Wire.reply_id reply) (Hashtbl.find_opt by_id) with
    | None -> ()
    | Some r -> (
        match reply with
        | Wire.Accepted { ticket; _ } ->
            r.accepted <- t;
            r.ticket <- ticket
        | _ when Wire.is_terminal reply && r.reply = None ->
            r.finished <- t;
            r.reply <- Some reply;
            decr outstanding
        | _ -> ())
  in
  let give_up = now_ms () +. 180_000. in
  let rec loop () =
    let now = now_ms () in
    if now > give_up then failwith "gave up waiting for replies";
    let slot = match pacing with Open _ -> now >= due !next | Closed w -> !outstanding < w in
    if more now && slot then begin
      issue now;
      loop ()
    end
    else if more now || !outstanding > 0 then begin
      let wait =
        match pacing with
        | Open _ when more now -> Float.max 0. ((due !next -. now) /. 1000.)
        | _ -> 0.1
      in
      poll c wait on_reply;
      loop ()
    end
  in
  loop ();
  (Array.of_list (List.rev !issued), t0)

(* -- the traced run's ring analysis -- *)

type stamps = {
  mutable adm : (int * float) option;
  mutable started : (int * float) option;
  mutable decided : float option;
}

(* Per-ticket ring stamps: (seq, ms) of Admitted and of the first
   Started, and the Decided time. *)
let ring_stamps (dump : Flight.dump) =
  let tbl = Hashtbl.create 4096 in
  let get t =
    match Hashtbl.find_opt tbl t with
    | Some s -> s
    | None ->
        let s = { adm = None; started = None; decided = None } in
        Hashtbl.replace tbl t s;
        s
  in
  List.iter
    (fun (e : Flight.entry) ->
      let ms = Int64.to_float e.at_ns /. 1e6 in
      match e.ev with
      | Flight.Admitted { ticket; _ } -> (get ticket).adm <- Some (e.seq, ms)
      | Flight.Started { ticket; _ } ->
          let s = get ticket in
          if s.started = None then s.started <- Some (e.seq, ms)
      | Flight.Decided { ticket; _ } -> (get ticket).decided <- Some ms
      | _ -> ())
    dump.entries;
  tbl

type stage = {
  admit_ms : float;
  queue_ms : float;
  service_ms : float;
  reply_ms : float;
  inverted : bool;  (** The ring has Started before Admitted. *)
}

(* Split each traced request into admit / queue wait / service / reply
   on the client's clock; returns the stages and their spans. *)
let stages reqs dump =
  let tbl = ring_stamps dump in
  let full =
    Array.to_list reqs
    |> List.filter_map (fun r ->
           match Hashtbl.find_opt tbl r.ticket with
           | Some { adm = Some a; started = Some s; decided = Some d }
             when not (Float.is_nan r.finished) ->
               Some (r, a, s, d)
           | _ -> None)
  in
  let off =
    Stats.clock_offset (List.map (fun (r, (_, adm), _, _) -> (r.sent, r.accepted, adm)) full)
  in
  let sp = Spans.create () in
  let samples =
    List.map
      (fun (r, (adm_seq, adm), (st_seq, st), dec) ->
        let adm = adm +. off and st = st +. off and dec = dec +. off in
        let root = Spans.add sp ~name:"client.request" ~key:r.ticket r.sent r.finished in
        let parent = root and key = r.ticket in
        ignore (Spans.add sp ~parent ~name:"server.admit" ~key r.sent adm);
        ignore (Spans.add sp ~parent ~name:"admission.queue_wait" ~key adm st);
        ignore (Spans.add sp ~parent ~name:"supervisor.service" ~key st dec);
        ignore (Spans.add sp ~parent ~name:"server.reply" ~key dec r.finished);
        {
          admit_ms = adm -. r.sent;
          queue_ms = st -. adm;
          service_ms = dec -. st;
          reply_ms = r.finished -. dec;
          inverted = st_seq < adm_seq;
        })
      full
  in
  (samples, Spans.spans sp)

(* Median over 7 repetitions of the per-call cost of [f], in ns. *)
let per_call_ns ~iters f =
  Stats.median
    (List.init 7 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to iters do
           f ()
         done;
         Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int iters))

(* Median-of-7 per-call costs of the front end's pure pieces. *)
let frontend_micro spec =
  let submit =
    Wire.Submit
      {
        Wire.id = "t12345";
        protocol = spec.protocol;
        n = spec.n;
        alpha = spec.alpha;
        seed = 1_000_123;
        adversary = spec.adversary;
        timeout_ms = None;
      }
  in
  let result =
    Wire.Result
      {
        id = "t12345";
        ticket = 12345;
        ok = true;
        detail = "";
        rounds = 388;
        msgs = 104_998;
        bits = 2_986_944;
        attempts = 1;
      }
  in
  let roundtrip encode decode =
    per_call_ns ~iters:2000 (fun () ->
        let d = Frame.Decoder.create () in
        Frame.Decoder.feed_string d (Frame.encode (encode ()));
        match Frame.Decoder.next d with
        | Ok (Some j) -> ignore (decode j)
        | _ -> failwith "frame round trip")
  in
  let q = Admission.create ~bound:64 ~workers () in
  let ring = Flight.create ~capacity:4096 in
  [ m "frame_wire.submit_roundtrip_us" "us"
      (roundtrip (fun () -> Wire.request_to_json submit) Wire.request_of_json /. 1000.);
    m "frame_wire.result_roundtrip_us" "us"
      (roundtrip (fun () -> Wire.reply_to_json result) Wire.reply_of_json /. 1000.);
    m "admission.cycle_us" "us"
      (per_call_ns ~iters:20_000 (fun () ->
           ignore (Admission.admit q 0);
           ignore (Admission.try_take q);
           Admission.complete q ~service_ms:1.)
      /. 1000.);
    m "flight.record_ns" "ns"
      (per_call_ns ~iters:100_000 (fun () ->
           Flight.record ring (Flight.Round { ticket = 7; round = 3 }))) ]

(* -- the workload -- *)

let case_of spec seed =
  let entry = Option.get (Catalog.find spec.protocol) in
  {
    Case.protocol = spec.protocol;
    n = spec.n;
    alpha = spec.alpha;
    seed;
    inputs = Catalog.gen_inputs entry ~n:spec.n ~seed;
    plan = [];
    adversary = (if spec.adversary = "none" then None else Some spec.adversary);
    loss = Ftc_fault.Omission.No_loss;
    queue = None;
    transport = false;
  }

let run spec ctx =
  let blackbox = Printf.sprintf "results/perf-%d-blackbox.jsonl" (Unix.getpid ()) in
  (* The ring must hold the whole run (dropped = 0): about one event per
     engine round plus a few per instance, sized from direct runs. *)
  let flight =
    if not ctx.trace then None
    else
      let rounds =
        List.fold_left
          (fun acc j ->
            max acc (fst (case_run (case_of spec (warm_seed ctx j)))).Engine.rounds_used)
          0 [ 0; 1; 2 ]
      in
      (* A closed loop of short instances stays far below 2000/s on 2 workers. *)
      let max_rate = match spec.pacing with Open rate -> rate | Closed _ -> 2000. in
      let units = spec.warmup + int_of_float (ctx.seconds *. max_rate) in
      Some (blackbox, (units * ((2 * rounds) + 8)) + 1024)
  in
  let server = start_server ~flight in
  let c = connect server in
  ping c;
  let window = match spec.pacing with Closed w -> w | Open _ -> workers in
  ignore
    (drive spec c ~tag:"w" ~seed_of:(warm_seed ctx) ~pacing:(Closed window)
       ~stop:(`Count spec.warmup));
  ctx.ready ();
  let cpu0 = cpu_s (Some server.pid) in
  let stop =
    match spec.pacing with
    | Open rate -> `Count (int_of_float (ctx.seconds *. rate))
    | Closed _ -> `Until (now_ms () +. (ctx.seconds *. 1000.))
  in
  let reqs, t0 = drive spec c ~tag:"t" ~seed_of:(unit_seed ctx) ~pacing:spec.pacing ~stop in
  let wall_ms = now_ms () -. t0 in
  let cpu = cpu_s (Some server.pid) -. cpu0 in
  let rss = peak_rss_mb (Some server.pid) in
  Unix.close c.fd;
  stop_server server;
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (match summary_lost server with
  | Some 0 -> ()
  | Some lost -> note "server summary reports lost=%d" lost
  | None -> note "no server summary line in %s" server.out);
  let results =
    Array.to_list reqs
    |> List.filter_map (fun r ->
           match r.reply with
           | Some (Wire.Result { ok; rounds; msgs; bits; _ }) -> Some (r, (msgs, bits, rounds, ok))
           | _ -> None)
  in
  if results = [] then failwith "no submit ended in a Result";
  let not_result = Array.length reqs - List.length results in
  if not_result > 0 then
    note "%d of %d submits did not end in a Result" not_result (Array.length reqs);
  (* Latency counts from the due time, so a stalled generator would be
     charged to the server: such a run is invalid. *)
  let late_ms_p99 =
    Stats.quantile (Array.to_list (Array.map (fun r -> r.sent -. r.due) reqs)) 0.99
  in
  if late_ms_p99 > 5. then note "the load generator ran %.1f ms late (p99; limit 5 ms)" late_ms_p99;
  (* The served instance must be the instance: a 1-in-10 sample re-run
     directly through Case.run has to agree on every count. The traced
     run also takes each sampled instance apart. *)
  let sample = List.filter (fun (r, _) -> r.idx mod sample_every = 0) results in
  let mismatches = ref 0 in
  let costs =
    List.filter_map
      (fun (r, served) ->
        let case = case_of spec r.seed in
        let cost = if ctx.trace then Some (instance_cost case) else None in
        let res, findings =
          match cost with Some c -> (c.result, c.findings) | None -> case_run case
        in
        let direct =
          ( res.Engine.metrics.Ftc_sim.Metrics.msgs_sent,
            res.metrics.bits_sent,
            res.rounds_used,
            findings = [] )
        in
        if served <> direct then begin
          incr mismatches;
          note "seed %d: served result differs from a direct Case.run" r.seed
        end;
        cost)
      sample
  in
  let latencies = List.map (fun (r, _) -> r.finished -. r.due) results in
  let layers, spans =
    if not ctx.trace then ([], [])
    else begin
      let dump =
        match Flight.load ~path:blackbox with Ok d -> d | Error e -> failwith ("blackbox: " ^ e)
      in
      Sys.remove blackbox;
      if dump.dropped_ > 0 then note "flight ring dropped %d events" dump.dropped_;
      let samples, spans = stages reqs dump in
      let p q f = Stats.quantile (List.map f samples) q in
      let admit = p 0.5 (fun s -> s.admit_ms) and queue = p 0.5 (fun s -> s.queue_ms) in
      let service = p 0.5 (fun s -> s.service_ms) and reply = p 0.5 (fun s -> s.reply_ms) in
      let stage_sum = admit +. queue +. service +. reply in
      let med f = Stats.median (List.map f costs) in
      let case_ms = med (fun c -> c.case_ms) in
      let events_per_instance =
        float_of_int dump.recorded /. float_of_int (spec.warmup + Array.length reqs)
      in
      let micro = frontend_micro spec in
      let record_ns = (List.find (fun x -> x.name = "flight.record_ns") micro).value in
      ( cpu_metrics ~cpu_s:cpu ~wall_ms ~units:(List.length results)
        @ cost_metrics costs
        (* The server's own heap is out of reach: GC work per instance is
           that of the sampled Case.run calls, on one domain. *)
        @ gc_metrics
            (List.fold_left (fun acc c -> gc_add acc c.case_gc) gc_zero costs)
            ~units:(List.length costs)
        @ [ m "server.admit_ms_p50" "ms" admit;
            m "admission.queue_wait_ms_p50" "ms" queue;
            m "admission.queue_wait_ms_p95" "ms" (p 0.95 (fun s -> s.queue_ms));
            m "supervisor.service_ms_p50" "ms" service;
            m "server.reply_ms_p50" "ms" reply;
            m "serve.stage_sum_ms" "ms" stage_sum;
            m "serve.stage_sum_ratio" "ratio" (stage_sum /. Stats.median latencies);
            m "supervisor.contention_ratio" "ratio" (service /. case_ms);
            m "case.run_ms_p50" "ms" case_ms;
            m "case.trace_ms_p50" "ms"
              (case_ms -. med (fun c -> c.engine.ms) -. med (fun c -> c.oracle_ms));
            m "engine.trace_events" "count"
              (mean
                 (List.map
                    (fun c ->
                      float_of_int (Ftc_sim.Trace.length (Option.get c.result.Engine.trace)))
                    costs));
            m "flight.order_inversions" "count"
              (float_of_int (List.length (List.filter (fun s -> s.inverted) samples)));
            m "flight.dropped" "count" (float_of_int dump.dropped_);
            m "flight.events_per_instance" "count" events_per_instance;
            m "flight.predicted_overhead_ms" "ms" (record_ns *. events_per_instance /. 1e6);
            m "client.late_ms_p99" "ms" late_ms_p99 ]
        @ micro,
        spans )
    end
  in
  {
    units = Array.length reqs;
    failed = not_result + !mismatches;
    notes = List.rev !notes;
    work = float_of_int (List.length results);
    wall_ms;
    rss_mb = rss;
    unit_ms = latencies;
    layers;
    digest = digest ~count:spec.digest_units (List.map snd results);
    spans;
  }
