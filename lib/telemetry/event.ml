module Json = Ftc_journal.Json

module Types = struct
  type event =
    | Span of Span.t
    | Trial of {
        track : string;
        protocol : string;
        seed : int;
        ok : bool;
        msgs : int;
        bits : int;
        rounds : int;
        start_ns : int64;
        dur_ns : int64;
      }
    | Job of { pool : string; worker : int; start_ns : int64; dur_ns : int64; wait_ns : int64 }
    | Heartbeat of {
        at_ns : int64;
        completed : int;
        failed : int;
        total : int;
        verdict : (int * string) option;
      }
    | Admitted of { ticket : int; id : string; protocol : string; n : int; seed : int }
    | Shed of { id : string; hint_ms : int; draining : bool }
    | Started of { ticket : int; attempt : int; worker : int }
    | Round of { ticket : int; round : int }
    | Decided of { ticket : int; class_ : string; ok : bool }
    | Requeued of { ticket : int; attempt : int }
    | Reaped of { worker : int; ticket : int option; detail : string }
    | Respawned of { worker : int; ticket : int option }
    | Budget_exhausted of { ticket : int }
    | Injected of { kind : string; ticket : int }
    | Note of string

  type entry = { seq : int; at_ns : int64; ev : event }
end

include Types

let kind = function
  | Span _ -> "span"
  | Trial _ -> "trial"
  | Job _ -> "job"
  | Heartbeat _ -> "heartbeat"
  | Admitted _ -> "admitted"
  | Shed _ -> "shed"
  | Started _ -> "started"
  | Round _ -> "round"
  | Decided _ -> "decided"
  | Requeued _ -> "requeued"
  | Reaped _ -> "reaped"
  | Respawned _ -> "respawned"
  | Budget_exhausted _ -> "budget-exhausted"
  | Injected _ -> "injected"
  | Note _ -> "note"

let ticket_of = function
  | Admitted { ticket; _ }
  | Started { ticket; _ }
  | Round { ticket; _ }
  | Decided { ticket; _ }
  | Requeued { ticket; _ }
  | Budget_exhausted { ticket }
  | Injected { ticket; _ } ->
      Some ticket
  | Reaped { ticket; _ } | Respawned { ticket; _ } -> ticket
  | Span _ | Trial _ | Job _ | Heartbeat _ | Shed _ | Note _ -> None

let pp = function
  | Span s ->
      Printf.sprintf "span %s/%s rounds [%d,%d) msgs=%d bits=%d" s.protocol s.phase s.start_round
        s.end_round s.msgs s.bits
  | Trial { track; protocol; seed; ok; msgs; bits; rounds; _ } ->
      Printf.sprintf "trial %s seed=%d ok=%b rounds=%d msgs=%d bits=%d (%s)" protocol seed ok
        rounds msgs bits track
  | Job { pool; worker; _ } -> Printf.sprintf "job %s on worker %d" pool worker
  | Heartbeat { completed; failed; total; verdict; _ } ->
      Printf.sprintf "heartbeat %d completed, %d failed of %d%s" completed failed total
        (match verdict with
        | Some (seed, class_) -> Printf.sprintf " (seed %d: %s)" seed class_
        | None -> "")
  | Admitted { ticket; id; protocol; n; seed } ->
      Printf.sprintf "admitted ticket=%d id=%s protocol=%s n=%d seed=%d" ticket id protocol
        n seed
  | Shed { id; hint_ms; draining } ->
      Printf.sprintf "shed id=%s retry_after_ms=%d%s" id hint_ms
        (if draining then " (draining)" else "")
  | Started { ticket; attempt; worker } ->
      Printf.sprintf "started ticket=%d attempt=%d on worker %d" ticket attempt worker
  | Round { ticket; round } -> Printf.sprintf "round ticket=%d round=%d" ticket round
  | Decided { ticket; class_; ok } ->
      Printf.sprintf "decided ticket=%d class=%s ok=%b" ticket class_ ok
  | Requeued { ticket; attempt } ->
      Printf.sprintf "requeued ticket=%d after attempt %d" ticket attempt
  | Reaped { worker; ticket; detail } ->
      Printf.sprintf "reaped worker %d%s: %s" worker
        (match ticket with Some k -> Printf.sprintf " (ticket %d)" k | None -> " (idle)")
        detail
  | Respawned { worker; ticket } ->
      Printf.sprintf "respawned worker %d%s" worker
        (match ticket with
        | Some k -> Printf.sprintf " (was running ticket %d)" k
        | None -> "")
  | Budget_exhausted { ticket } -> Printf.sprintf "crash budget exhausted ticket=%d" ticket
  | Injected { kind; ticket } -> Printf.sprintf "injected %s ticket=%d" kind ticket
  | Note s -> Printf.sprintf "note %s" s

(* ---- JSON codec ------------------------------------------------------- *)

let i64 v = Json.Int (Int64.to_int v)
let opt k f = function Some v -> [ (k, f v) ] | None -> []

let to_json ev =
  let fields =
    match ev with
    | Span s ->
        [
          ("protocol", Json.String s.protocol);
          ("track", Json.String s.track);
          ("phase", Json.String s.phase);
          ("start_round", Json.Int s.start_round);
          ("end_round", Json.Int s.end_round);
          ("msgs", Json.Int s.msgs);
          ("bits", Json.Int s.bits);
          ("start_ns", i64 s.start_ns);
          ("dur_ns", i64 s.dur_ns);
        ]
    | Trial { track; protocol; seed; ok; msgs; bits; rounds; start_ns; dur_ns } ->
        [
          ("track", Json.String track);
          ("protocol", Json.String protocol);
          ("seed", Json.Int seed);
          ("ok", Json.Bool ok);
          ("msgs", Json.Int msgs);
          ("bits", Json.Int bits);
          ("rounds", Json.Int rounds);
          ("start_ns", i64 start_ns);
          ("dur_ns", i64 dur_ns);
        ]
    | Job { pool; worker; start_ns; dur_ns; wait_ns } ->
        [
          ("pool", Json.String pool);
          ("worker", Json.Int worker);
          ("start_ns", i64 start_ns);
          ("dur_ns", i64 dur_ns);
          ("wait_ns", i64 wait_ns);
        ]
    | Heartbeat { at_ns; completed; failed; total; verdict } ->
        [
          ("at_ns", i64 at_ns);
          ("completed", Json.Int completed);
          ("failed", Json.Int failed);
          ("total", Json.Int total);
        ]
        @ opt "seed" (fun (seed, _) -> Json.Int seed) verdict
        @ opt "class" (fun (_, c) -> Json.String c) verdict
    | Admitted { ticket; id; protocol; n; seed } ->
        [
          ("ticket", Json.Int ticket);
          ("id", Json.String id);
          ("protocol", Json.String protocol);
          ("n", Json.Int n);
          ("seed", Json.Int seed);
        ]
    | Shed { id; hint_ms; draining } ->
        [ ("id", Json.String id); ("hint_ms", Json.Int hint_ms); ("draining", Json.Bool draining) ]
    | Started { ticket; attempt; worker } ->
        [ ("ticket", Json.Int ticket); ("attempt", Json.Int attempt); ("worker", Json.Int worker) ]
    | Round { ticket; round } -> [ ("ticket", Json.Int ticket); ("round", Json.Int round) ]
    | Decided { ticket; class_; ok } ->
        [ ("ticket", Json.Int ticket); ("class", Json.String class_); ("ok", Json.Bool ok) ]
    | Requeued { ticket; attempt } -> [ ("ticket", Json.Int ticket); ("attempt", Json.Int attempt) ]
    | Reaped { worker; ticket; detail } ->
        (("worker", Json.Int worker) :: opt "ticket" (fun k -> Json.Int k) ticket)
        @ [ ("detail", Json.String detail) ]
    | Respawned { worker; ticket } ->
        ("worker", Json.Int worker) :: opt "ticket" (fun k -> Json.Int k) ticket
    | Budget_exhausted { ticket } -> [ ("ticket", Json.Int ticket) ]
    | Injected { kind; ticket } -> [ ("kind", Json.String kind); ("ticket", Json.Int ticket) ]
    | Note s -> [ ("text", Json.String s) ]
  in
  Json.Obj (("ev", Json.String (kind ev)) :: fields)

let of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let i64 k = Option.map Int64.of_int (int k) in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let bool k = Option.bind (Json.member k j) Json.to_bool in
  let decoded =
    let* kind = str "ev" in
    match kind with
    | "span" ->
        let* protocol = str "protocol" in
        let* track = str "track" in
        let* phase = str "phase" in
        let* start_round = int "start_round" in
        let* end_round = int "end_round" in
        let* msgs = int "msgs" in
        let* bits = int "bits" in
        let* start_ns = i64 "start_ns" in
        let* dur_ns = i64 "dur_ns" in
        Some
          (Span
             { Span.protocol; track; phase; start_round; end_round; msgs; bits; start_ns; dur_ns })
    | "trial" ->
        let* track = str "track" in
        let* protocol = str "protocol" in
        let* seed = int "seed" in
        let* ok = bool "ok" in
        let* msgs = int "msgs" in
        let* bits = int "bits" in
        let* rounds = int "rounds" in
        let* start_ns = i64 "start_ns" in
        let* dur_ns = i64 "dur_ns" in
        Some (Trial { track; protocol; seed; ok; msgs; bits; rounds; start_ns; dur_ns })
    | "job" ->
        let* pool = str "pool" in
        let* worker = int "worker" in
        let* start_ns = i64 "start_ns" in
        let* dur_ns = i64 "dur_ns" in
        let* wait_ns = i64 "wait_ns" in
        Some (Job { pool; worker; start_ns; dur_ns; wait_ns })
    | "heartbeat" ->
        let* at_ns = i64 "at_ns" in
        let* completed = int "completed" in
        let* failed = int "failed" in
        let* total = int "total" in
        let verdict =
          match (int "seed", str "class") with Some s, Some c -> Some (s, c) | _ -> None
        in
        Some (Heartbeat { at_ns; completed; failed; total; verdict })
    | "admitted" ->
        let* ticket = int "ticket" in
        let* id = str "id" in
        let* protocol = str "protocol" in
        let* n = int "n" in
        let* seed = int "seed" in
        Some (Admitted { ticket; id; protocol; n; seed })
    | "shed" ->
        let* id = str "id" in
        let* hint_ms = int "hint_ms" in
        let* draining = bool "draining" in
        Some (Shed { id; hint_ms; draining })
    | "started" ->
        let* ticket = int "ticket" in
        let* attempt = int "attempt" in
        let* worker = int "worker" in
        Some (Started { ticket; attempt; worker })
    | "round" ->
        let* ticket = int "ticket" in
        let* round = int "round" in
        Some (Round { ticket; round })
    | "decided" ->
        let* ticket = int "ticket" in
        let* class_ = str "class" in
        let* ok = bool "ok" in
        Some (Decided { ticket; class_; ok })
    | "requeued" ->
        let* ticket = int "ticket" in
        let* attempt = int "attempt" in
        Some (Requeued { ticket; attempt })
    | "reaped" ->
        let* worker = int "worker" in
        let* detail = str "detail" in
        Some (Reaped { worker; ticket = int "ticket"; detail })
    | "respawned" ->
        let* worker = int "worker" in
        Some (Respawned { worker; ticket = int "ticket" })
    | "budget-exhausted" ->
        let* ticket = int "ticket" in
        Some (Budget_exhausted { ticket })
    | "injected" ->
        let* kind = str "kind" in
        let* ticket = int "ticket" in
        Some (Injected { kind; ticket })
    | "note" ->
        let* text = str "text" in
        Some (Note text)
    | _ -> None
  in
  Option.to_result ~none:("bad event: " ^ Json.to_string j) decoded

(* Metrics ride in the header: counters and gauges as one value,
   histograms as their digest and bucket counts. *)
let metric_to_json (name, value) =
  let kind, fields =
    match value with
    | Registry.Counter v -> ("counter", [ ("value", Json.Int v) ])
    | Registry.Gauge v -> ("gauge", [ ("value", Json.Int v) ])
    | Registry.Hist h ->
        ( "histogram",
          [
            ("count", Json.Int (Hist.count h));
            ("sum", Json.Int (Hist.sum h));
            ("min", Json.Int (Hist.min_value h));
            ("max", Json.Int (Hist.max_value h));
            ("buckets", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) (Hist.buckets h))));
          ] )
  in
  Json.Obj (("name", Json.String name) :: ("kind", Json.String kind) :: fields)

let metric_of_json j =
  let ( let* ) = Option.bind in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let* kind = Option.bind (Json.member "kind" j) Json.to_str in
  match kind with
  | "counter" -> Option.map (fun v -> (name, Registry.Counter v)) (int "value")
  | "gauge" -> Option.map (fun v -> (name, Registry.Gauge v)) (int "value")
  | "histogram" ->
      let* count = int "count" in
      let* sum = int "sum" in
      let* min_value = int "min" in
      let* max_value = int "max" in
      let* buckets =
        match Json.member "buckets" j with
        | Some (Json.List l) ->
            let ints = List.filter_map Json.to_int l in
            if List.length ints = Hist.n_buckets && List.length l = Hist.n_buckets then
              Some (Array.of_list ints)
            else None
        | _ -> None
      in
      Some (name, Registry.Hist (Hist.of_parts ~count ~sum ~min_value ~max_value buckets))
  | _ -> None

(* ---- Event files ------------------------------------------------------ *)

let file_version = 2
let header_key = "ftc_events"

type file = {
  reason : string;
  capacity_ : int;
  recorded : int;
  dropped_ : int;
  metrics : (string * Registry.value) list;
  entries : entry list;
}

let write ~path f =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (Json.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (Json.Obj
       [
         (header_key, Json.Int file_version);
         ("reason", Json.String f.reason);
         ("capacity", Json.Int f.capacity_);
         ("recorded", Json.Int f.recorded);
         ("dropped", Json.Int f.dropped_);
         ("metrics", Json.List (List.map metric_to_json f.metrics));
       ]);
  List.iter
    (fun e ->
      line
        (Json.Obj
           [ ("seq", Json.Int e.seq); ("at_ns", i64 e.at_ns); ("event", to_json e.ev) ]))
    f.entries;
  Ftc_journal.Journal.write_atomic ~path (Buffer.contents buf)

let entry_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  match (int "seq", int "at_ns", Json.member "event" j) with
  | Some seq, Some at, Some evj ->
      Result.map (fun ev -> { seq; at_ns = Int64.of_int at; ev }) (of_json evj)
  | _ -> Error ("bad entry: " ^ Json.to_string j)

let load ~path =
  let ( let* ) = Result.bind in
  let* content =
    try Ok (In_channel.with_open_bin path In_channel.input_all) with Sys_error e -> Error e
  in
  match String.split_on_char '\n' content |> List.filter (fun l -> String.trim l <> "") with
  | [] -> Error "empty event file"
  | header :: lines ->
      let* h = Json.of_string header in
      let field conv k =
        Option.to_result ~none:("header missing " ^ k) (Option.bind (Json.member k h) conv)
      in
      let* version =
        Result.map_error (fun _ -> "missing event-file header") (field Json.to_int header_key)
      in
      let* () =
        if version = file_version then Ok ()
        else Error (Printf.sprintf "unsupported event-file version %d" version)
      in
      let* reason = field Json.to_str "reason" in
      let* capacity_ = field Json.to_int "capacity" in
      let* recorded = field Json.to_int "recorded" in
      let* dropped_ = field Json.to_int "dropped" in
      let* metrics =
        match Json.member "metrics" h with
        | Some (Json.List ms) ->
            let decoded = List.filter_map metric_of_json ms in
            if List.length decoded = List.length ms then Ok decoded
            else Error "header has a malformed metric"
        | _ -> Error "header missing metrics"
      in
      let* entries =
        List.fold_left
          (fun acc (i, line) ->
            let* acc = acc in
            let* e =
              Result.map_error
                (Printf.sprintf "line %d: %s" (i + 2))
                (Result.bind (Json.of_string line) entry_of_json)
            in
            Ok (e :: acc))
          (Ok []) (List.mapi (fun i l -> (i, l)) lines)
      in
      Ok { reason; capacity_; recorded; dropped_; metrics; entries = List.rev entries }

let check f =
  let n = List.length f.entries in
  if f.recorded - f.dropped_ <> n then
    Error
      (Printf.sprintf "entry count %d does not match recorded %d - dropped %d" n f.recorded
         f.dropped_)
  else
    let rec seqs expect = function
      | [] -> Ok ()
      | e :: rest ->
          if e.seq <> expect then
            Error (Printf.sprintf "sequence gap: expected %d, found %d" expect e.seq)
          else seqs (expect + 1) rest
    in
    seqs f.dropped_ f.entries
