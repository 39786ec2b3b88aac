module Json = Ftc_journal.Json
module Registry = Ftc_telemetry.Registry
module Recorder = Ftc_telemetry.Recorder
module Flight = Ftc_telemetry.Flight
module Hist = Ftc_telemetry.Hist

type addr = Unix_sock of string | Tcp of int

type config = {
  addr : addr;
  workers : int;
  bound : int;
  default_timeout_ms : int;
  grace_ms : int;
  inject : Inject.t;
  recorder : Recorder.t;
  flight : Flight.t;
  blackbox : string option;
  log : string -> unit;
}

let default_config addr =
  {
    addr;
    workers = 4;
    bound = 256;
    default_timeout_ms = 10_000;
    grace_ms = 30_000;
    inject = Inject.none;
    recorder = Recorder.disabled;
    flight = Flight.disabled;
    blackbox = None;
    log = ignore;
  }

type summary = {
  accepted : int;
  results : int;
  failed : int;
  sheds : int;
  rejected : int;
  restarts : int;
  injected : int;
  orphaned : int;
  lost : int;
  peak_open : int;
  conns : int;
}

let summary_line s =
  Printf.sprintf
    "serve summary: accepted=%d results=%d failed=%d sheds=%d rejected=%d restarts=%d injected=%d \
     orphaned=%d peak_open=%d conns=%d lost=%d"
    s.accepted s.results s.failed s.sheds s.rejected s.restarts s.injected s.orphaned s.peak_open
    s.conns s.lost

let exit_code s = if s.lost = 0 then 0 else 1

type conn = { cid : int; fd : Unix.file_descr; decoder : Frame.Decoder.t; mutable open_ : bool }

type delayed = { due_ms : float; dconn : int; bytes : string }

(* Mutable per-run state, all owned by the event-loop domain; the only
   cross-domain edges are the admission queue, the completion queue,
   and the self-pipe. *)
type st = {
  cfg : config;
  queue : Supervisor.instance Admission.t;
  sup : Supervisor.t;
  conns : (int, conn) Hashtbl.t;
  ledger : (int, Supervisor.instance) Hashtbl.t;
  started_ms : float;
  lat : Hist.t;  (* event-loop domain only *)
  icounters : Inject.Counters.t;
  mutable delayed : delayed list;
  mutable next_cid : int;
  mutable next_ticket : int;
  mutable n_accepted : int;
  mutable n_results : int;
  mutable n_failed : int;
  mutable n_sheds : int;
  mutable n_rejected : int;
  mutable n_injected : int;
  mutable n_orphaned : int;
  mutable n_conns : int;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let reg st = Recorder.registry st.cfg.recorder
let count st name by = Registry.incr (reg st) name by
let flight st = st.cfg.flight

(* Black-box dump: every trigger rewrites the file with the current
   window — the newest dump is always the most complete picture. *)
let dump_blackbox st reason =
  match st.cfg.blackbox with
  | None -> ()
  | Some path ->
      Flight.record (flight st) (Flight.Note (Printf.sprintf "dump: %s" reason));
      Flight.dump (flight st) ~path ~reason;
      st.cfg.log (Printf.sprintf "blackbox: dumped %s (reason %s)" path reason)

(* -- socket plumbing -- *)

let bind_listen addr =
  match addr with
  | Unix_sock path ->
      (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64;
         Ok fd
       with Unix.Unix_error (e, _, _) ->
         Unix.close fd;
         Error (Printf.sprintf "bind %s: %s" path (Unix.error_message e)))
  | Tcp port -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      try
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        Ok fd
      with Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "bind 127.0.0.1:%d: %s" port (Unix.error_message e)))

let close_conn st c =
  if c.open_ then begin
    c.open_ <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove st.conns c.cid
  end

let write_all fd s =
  let len = String.length s in
  let rec go off = if off < len then go (off + Unix.write_substring fd s off (len - off)) in
  go 0

(* Best-effort frame write: a dead peer closes the connection, it never
   kills the server. *)
let send st c reply =
  if c.open_ then begin
    let bytes = Frame.encode (Wire.reply_to_json reply) in
    try write_all c.fd bytes
    with Unix.Unix_error _ -> close_conn st c
  end

(* -- submit handling -- *)

let max_n = 4096

(* The case rule ([Case.validate] of the case the worker will run) plus
   serve's own resource bound on n, checked first so an oversized submit
   never allocates its inputs. *)
let validate (s : Wire.submit) =
  if s.n > max_n then Error (Printf.sprintf "n must be at most %d (got %d)" max_n s.n)
  else
    match Ftc_chaos.Case.validate (Supervisor.case_of_submit s) with
    | Error e -> Error (Ftc_chaos.Case.error_to_string e)
    | Ok _ -> (
        match s.timeout_ms with
        | Some t when t < 1 -> Error "timeout_ms must be positive"
        | _ -> Ok ())

let stats_kvs st =
  [
    ("accepted", st.n_accepted);
    ("results", st.n_results);
    ("failed", st.n_failed);
    ("sheds", st.n_sheds);
    ("rejected", st.n_rejected);
    ("pending", Admission.pending st.queue);
    ("open", Admission.open_count st.queue);
    ("peak_open", Admission.peak_open st.queue);
    ("conns", Hashtbl.length st.conns);
    (* Appended in v2: same (string * int) shape, so v1 consumers that
       pick keys by name keep working and never see these. *)
    ("latency_count", Hist.count st.lat);
    ("latency_p50_ms", Hist.quantile st.lat 0.5);
    ("latency_p90_ms", Hist.quantile st.lat 0.9);
    ("latency_p99_ms", Hist.quantile st.lat 0.99);
  ]

let uptime_ms st = int_of_float (now_ms () -. st.started_ms)

let introspect st =
  {
    Wire.uptime_ms = uptime_ms st;
    version = Wire.protocol_version;
    pending = Admission.pending st.queue;
    open_ = Admission.open_count st.queue;
    peak_open = Admission.peak_open st.queue;
    bound = Admission.bound st.queue;
    ewma_ms = Admission.ewma_ms st.queue;
    lat_count = Hist.count st.lat;
    p50_ms = Hist.quantile st.lat 0.5;
    p90_ms = Hist.quantile st.lat 0.9;
    p99_ms = Hist.quantile st.lat 0.99;
    workers = Supervisor.views st.sup;
    injections = Inject.Counters.snapshot st.icounters;
    counters = stats_kvs st;
  }

let handle_submit st c (s : Wire.submit) =
  match validate s with
  | Error reason ->
      st.n_rejected <- st.n_rejected + 1;
      count st "serve/rejected" 1;
      send st c (Wire.Rejected { id = s.id; reason })
  | Ok () -> (
      let ticket = st.next_ticket in
      st.next_ticket <- ticket + 1;
      let inst =
        {
          Supervisor.ticket;
          conn = c.cid;
          submit = s;
          attempts = 0;
          enqueued_at = Unix.gettimeofday ();
        }
      in
      let on_admit () =
        Flight.record (flight st)
          (Flight.Admitted { ticket; id = s.id; protocol = s.protocol; n = s.n; seed = s.seed })
      in
      match Admission.admit ~on_admit st.queue inst with
      | Admission.Admitted ->
          Hashtbl.replace st.ledger ticket inst;
          st.n_accepted <- st.n_accepted + 1;
          count st "serve/accepted" 1;
          st.cfg.log (Printf.sprintf "admit ticket=%d id=%s protocol=%s" ticket s.id s.protocol);
          send st c (Wire.Accepted { id = s.id; ticket })
      | Admission.Shed_full retry_after_ms ->
          st.n_sheds <- st.n_sheds + 1;
          count st "serve/sheds" 1;
          Flight.record (flight st)
            (Flight.Shed { id = s.id; hint_ms = retry_after_ms; draining = false });
          st.cfg.log (Printf.sprintf "shed id=%s retry_after_ms=%d" s.id retry_after_ms);
          send st c (Wire.Shed { id = s.id; retry_after_ms; draining = false })
      | Admission.Shed_draining retry_after_ms ->
          st.n_sheds <- st.n_sheds + 1;
          count st "serve/sheds" 1;
          Flight.record (flight st)
            (Flight.Shed { id = s.id; hint_ms = retry_after_ms; draining = true });
          send st c (Wire.Shed { id = s.id; retry_after_ms; draining = true }))

let handle_frame st c json =
  match Wire.request_of_json json with
  | Error e ->
      st.n_rejected <- st.n_rejected + 1;
      count st "serve/rejected" 1;
      send st c (Wire.Rejected { id = ""; reason = e })
  | Ok Wire.Ping ->
      send st c (Wire.Pong { uptime_ms = uptime_ms st; version = Wire.protocol_version })
  | Ok Wire.Stats -> send st c (Wire.Stats_reply (stats_kvs st))
  | Ok Wire.Introspect -> send st c (Wire.Introspect_reply (introspect st))
  | Ok (Wire.Submit s) -> handle_submit st c s

let read_conn st c =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | 0 -> close_conn st c
  | n ->
      Frame.Decoder.feed c.decoder buf 0 n;
      let rec frames () =
        if c.open_ then
          match Frame.Decoder.next c.decoder with
          | Ok (Some json) ->
              handle_frame st c json;
              frames ()
          | Ok None -> ()
          | Error e ->
              (* Protocol error: the stream is unparseable from here on.
                 Say why, then hang up. *)
              st.cfg.log (Printf.sprintf "conn %d: protocol error: %s" c.cid e);
              send st c (Wire.Rejected { id = ""; reason = "protocol error: " ^ e });
              close_conn st c
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn st c

(* -- completions -> terminal replies -- *)

let reply_of_completion (c : Supervisor.completion) =
  let s = c.inst.submit in
  let ticket = c.inst.ticket in
  match c.outcome with
  | Supervisor.Finished { ok; detail; rounds; msgs; bits } ->
      Wire.Result { id = s.id; ticket; ok; detail; rounds; msgs; bits; attempts = c.inst.attempts }
  | Supervisor.Watchdog_expired ->
      Wire.Failed
        { id = s.id; ticket; class_ = Wire.failed_watchdog; detail = "instance deadline expired" }
  | Supervisor.Killed ->
      Wire.Failed
        { id = s.id; ticket; class_ = Wire.failed_killed; detail = "injected instance kill" }
  | Supervisor.Crash_budget_exhausted d ->
      Wire.Failed
        {
          id = s.id;
          ticket;
          class_ = Wire.failed_crashed;
          detail = Printf.sprintf "worker crashed %d times running this instance: %s"
              Supervisor.max_attempts d;
        }
  | Supervisor.Exn d -> Wire.Failed { id = s.id; ticket; class_ = Wire.failed_exception; detail = d }

(* Terminal replies are the injection point for the frame/connection
   faults: dropped, truncated, or delayed on the way out. The ledger
   entry is removed regardless — the reply was produced; what the
   socket does with it is the client's weather. *)
let send_terminal st (comp : Supervisor.completion) reply =
  let salt = (comp.inst.ticket * 8) + 6 in
  let inj = st.cfg.inject in
  match Hashtbl.find_opt st.conns comp.inst.conn with
  | None | Some { open_ = false; _ } ->
      st.n_orphaned <- st.n_orphaned + 1;
      st.cfg.log (Printf.sprintf "ticket %d: reply orphaned (connection gone)" comp.inst.ticket)
  | Some c ->
      let record_fired kind =
        Inject.Counters.bump st.icounters kind;
        Flight.record (flight st)
          (Flight.Injected { kind = Inject.kind_to_string kind; ticket = comp.inst.ticket })
      in
      if Inject.fire inj Inject.Drop_conn ~salt then begin
        st.n_injected <- st.n_injected + 1;
        count st "serve/injected" 1;
        st.n_orphaned <- st.n_orphaned + 1;
        record_fired Inject.Drop_conn;
        st.cfg.log (Printf.sprintf "inject drop-conn conn=%d ticket=%d" c.cid comp.inst.ticket);
        close_conn st c
      end
      else if Inject.fire inj Inject.Truncate_frame ~salt then begin
        st.n_injected <- st.n_injected + 1;
        count st "serve/injected" 1;
        st.n_orphaned <- st.n_orphaned + 1;
        record_fired Inject.Truncate_frame;
        st.cfg.log (Printf.sprintf "inject truncate-frame conn=%d ticket=%d" c.cid comp.inst.ticket);
        let bytes = Frame.encode (Wire.reply_to_json reply) in
        (try write_all c.fd (String.sub bytes 0 (String.length bytes / 2))
         with Unix.Unix_error _ -> ());
        close_conn st c
      end
      else if Inject.fire inj Inject.Delay_frame ~salt then begin
        st.n_injected <- st.n_injected + 1;
        count st "serve/injected" 1;
        record_fired Inject.Delay_frame;
        let delay = Inject.delay_ms inj ~salt in
        st.cfg.log
          (Printf.sprintf "inject delay-frame conn=%d ticket=%d ms=%d" c.cid comp.inst.ticket delay);
        st.delayed <-
          {
            due_ms = now_ms () +. float_of_int delay;
            dconn = c.cid;
            bytes = Frame.encode (Wire.reply_to_json reply);
          }
          :: st.delayed
      end
      else send st c reply

let process_completion st (comp : Supervisor.completion) =
  let reply = reply_of_completion comp in
  Hashtbl.remove st.ledger comp.inst.ticket;
  let latency_ms = int_of_float (now_ms () -. (comp.inst.enqueued_at *. 1000.)) in
  Hist.record st.lat (max 0 latency_ms);
  Registry.observe (reg st) "serve/latency_ms" (max 0 latency_ms);
  (let class_, ok =
     match reply with
     | Wire.Result { ok; _ } -> ("ok", ok)
     | Wire.Failed { class_; _ } -> (class_, false)
     | _ -> ("?", false)
   in
   Flight.record (flight st) (Flight.Decided { ticket = comp.inst.ticket; class_; ok }));
  (match comp.outcome with
  | Supervisor.Watchdog_expired -> dump_blackbox st "watchdog"
  | _ -> ());
  (match comp.outcome with
  | Supervisor.Finished { ok; rounds; msgs; bits; _ } ->
      st.n_results <- st.n_results + 1;
      count st "serve/results" 1;
      if Flight.enabled (flight st) then begin
        let dur_ns = Int64.of_float (comp.service_ms *. 1e6) in
        Flight.record (flight st)
          (Flight.Trial
             {
               track = "serve";
               protocol = comp.inst.submit.protocol;
               seed = comp.inst.submit.seed;
               ok;
               msgs;
               bits;
               rounds;
               start_ns = Int64.sub (Flight.now_ns (flight st)) dur_ns;
               dur_ns;
             })
      end
  | _ ->
      st.n_failed <- st.n_failed + 1;
      count st "serve/failed" 1);
  (match comp.outcome with
  | Supervisor.Killed -> st.n_injected <- st.n_injected + 1
  | _ -> ());
  st.cfg.log
    (Printf.sprintf "ticket %d: terminal %s (attempts %d, %.1f ms)" comp.inst.ticket
       (match reply with
       | Wire.Result { ok; _ } -> if ok then "result ok" else "result violation"
       | Wire.Failed { class_; _ } -> "failed " ^ class_
       | _ -> "?")
       comp.inst.attempts comp.service_ms);
  send_terminal st comp reply

let flush_delayed st ~force =
  let now = now_ms () in
  let due, rest =
    List.partition (fun d -> force || d.due_ms <= now) st.delayed
  in
  st.delayed <- rest;
  List.iter
    (fun d ->
      match Hashtbl.find_opt st.conns d.dconn with
      | None | Some { open_ = false; _ } -> st.n_orphaned <- st.n_orphaned + 1
      | Some c -> (
          try write_all c.fd d.bytes with Unix.Unix_error _ -> close_conn st c))
    (List.rev due)

(* -- the event loop -- *)

let run ?(drain = Atomic.make false) ?(dump_signal = Atomic.make false) cfg =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  match bind_listen cfg.addr with
  | Error e -> Error e
  | Ok listen_fd ->
      let pipe_r, pipe_w = Unix.pipe () in
      Unix.set_nonblock pipe_r;
      let notify () = try ignore (Unix.write_substring pipe_w "x" 0 1) with Unix.Unix_error _ -> () in
      let queue = Admission.create ~bound:cfg.bound ~workers:cfg.workers () in
      let icounters = Inject.Counters.create () in
      let sup =
        Supervisor.create ~flight:cfg.flight ~counters:icounters ~workers:cfg.workers ~queue
          ~inject:cfg.inject ~default_timeout_ms:cfg.default_timeout_ms ~notify ()
      in
      let st =
        {
          cfg;
          queue;
          sup;
          conns = Hashtbl.create 64;
          ledger = Hashtbl.create 64;
          started_ms = now_ms ();
          lat = Hist.create ();
          icounters;
          delayed = [];
          next_cid = 0;
          next_ticket = 0;
          n_accepted = 0;
          n_results = 0;
          n_failed = 0;
          n_sheds = 0;
          n_rejected = 0;
          n_injected = 0;
          n_orphaned = 0;
          n_conns = 0;
        }
      in
      Flight.record cfg.flight (Flight.Note "serving");
      cfg.log
        (Printf.sprintf "serving (%s, workers=%d, bound=%d, inject=%s)"
           (match cfg.addr with Unix_sock p -> p | Tcp p -> Printf.sprintf "127.0.0.1:%d" p)
           cfg.workers cfg.bound (Inject.describe cfg.inject));
      let drain_pipe () =
        let buf = Bytes.create 256 in
        let rec go () =
          match Unix.read pipe_r buf 0 256 with
          | 256 -> go ()
          | _ -> ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        in
        go ()
      in
      let rec loop () =
        if Atomic.get drain && not (Admission.draining queue) then begin
          cfg.log "drain: admission stopped, finishing in-flight instances";
          Flight.record cfg.flight (Flight.Note "drain");
          Admission.drain queue
        end;
        if Atomic.exchange dump_signal false then dump_blackbox st "sigquit";
        let draining = Admission.draining queue in
        let restarted = Supervisor.tick sup in
        if restarted > 0 then begin
          st.n_injected <- st.n_injected + restarted;
          count st "serve/restarts" restarted;
          cfg.log
            (Printf.sprintf "restarted worker x%d after crash (total restarts %d)" restarted
               (Supervisor.restarts sup));
          dump_blackbox st "worker-crash"
        end;
        List.iter (process_completion st) (Supervisor.completions sup);
        flush_delayed st ~force:false;
        Registry.set_gauge (reg st) "serve/queue_depth" (Admission.pending queue);
        Registry.gauge_max (reg st) "serve/peak_open" (Admission.peak_open queue);
        if draining && Admission.quiescent queue && st.delayed = [] then ()
        else begin
          let conn_fds = Hashtbl.fold (fun _ c acc -> c.fd :: acc) st.conns [] in
          let rds = (pipe_r :: (if draining then [] else [ listen_fd ])) @ conn_fds in
          let timeout =
            match st.delayed with
            | [] -> 0.05
            | ds ->
                let next = List.fold_left (fun m d -> Float.min m d.due_ms) Float.infinity ds in
                Float.max 0.001 (Float.min 0.05 ((next -. now_ms ()) /. 1000.))
          in
          let readable =
            match Unix.select rds [] [] timeout with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          if List.mem pipe_r readable then drain_pipe ();
          if (not draining) && List.mem listen_fd readable then begin
            match Unix.accept listen_fd with
            | fd, _ ->
                let cid = st.next_cid in
                st.next_cid <- cid + 1;
                st.n_conns <- st.n_conns + 1;
                Hashtbl.replace st.conns cid
                  { cid; fd; decoder = Frame.Decoder.create (); open_ = true };
                cfg.log (Printf.sprintf "conn %d: accepted" cid)
            | exception Unix.Unix_error _ -> ()
          end;
          List.iter
            (fun fd ->
              if fd <> pipe_r && fd <> listen_fd then
                match Hashtbl.fold (fun _ c acc -> if c.fd = fd then Some c else acc) st.conns None with
                | Some c when c.open_ -> read_conn st c
                | _ -> ())
            readable;
          loop ()
        end
      in
      loop ();
      (* Quiescent: join the workers, then drain the last completions
         (all already pushed — see the worker-side ordering). *)
      let joined = Supervisor.join sup ~grace_ms:cfg.grace_ms in
      if not joined then cfg.log "drain: grace expired with workers still running";
      ignore (Supervisor.tick sup);
      List.iter (process_completion st) (Supervisor.completions sup);
      flush_delayed st ~force:true;
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        (Hashtbl.copy st.conns);
      Unix.close listen_fd;
      (try Unix.close pipe_r with Unix.Unix_error _ -> ());
      (try Unix.close pipe_w with Unix.Unix_error _ -> ());
      (match cfg.addr with
      | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ());
      let s =
        {
          accepted = st.n_accepted;
          results = st.n_results;
          failed = st.n_failed;
          sheds = st.n_sheds;
          rejected = st.n_rejected;
          restarts = Supervisor.restarts sup;
          injected = st.n_injected;
          orphaned = st.n_orphaned;
          lost = Hashtbl.length st.ledger;
          peak_open = Admission.peak_open queue;
          conns = st.n_conns;
        }
      in
      Registry.set_gauge (reg st) "serve/lost" s.lost;
      dump_blackbox st (if s.lost > 0 then "ledger-residue" else "clean-drain");
      cfg.log (summary_line s);
      Ok s
