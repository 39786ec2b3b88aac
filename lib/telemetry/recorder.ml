include Event.Types

type t = {
  on : bool;
  epoch : float;  (* Unix time of creation; event times are relative ns *)
  lock : Mutex.t;
  mutable log_rev : entry list;
  mutable count : int;
  registry : Registry.t;
}

let make ~on registry =
  { on; epoch = Unix.gettimeofday (); lock = Mutex.create (); log_rev = []; count = 0; registry }

let create () = make ~on:true (Registry.create ())

(* Shared no-op recorder: [enabled] is a field read, [now_ns] never
   touches the clock, [emit] drops the event before building anything —
   callers keep unconditional instrumentation with telemetry off. *)
let disabled = make ~on:false Registry.disabled

let enabled t = t.on
let registry t = t.registry

let now_ns t =
  if not t.on then 0L else Int64.of_float ((Unix.gettimeofday () -. t.epoch) *. 1e9)

let emit t ev =
  if t.on then begin
    let at_ns = now_ns t in
    Mutex.lock t.lock;
    t.log_rev <- { seq = t.count; at_ns; ev } :: t.log_rev;
    t.count <- t.count + 1;
    Mutex.unlock t.lock
  end

let entries t =
  Mutex.lock t.lock;
  let es = t.log_rev in
  Mutex.unlock t.lock;
  List.rev es

let events t = List.map (fun e -> e.ev) (entries t)

let log t =
  let entries = entries t in
  {
    Event.reason = "run";
    capacity_ = 0;
    recorded = List.length entries;
    dropped_ = 0;
    metrics = Registry.snapshot t.registry;
    entries;
  }
