include Event.Types

type ev = event

type t = {
  on : bool;
  cap : int;
  epoch : float;
  lock : Mutex.t;
  evs : ev array;
  stamps : int64 array;
  mutable written : int;  (* lifetime event count *)
}

let create ~capacity =
  let cap = max 1 capacity in
  {
    on = true;
    cap;
    epoch = Unix.gettimeofday ();
    lock = Mutex.create ();
    evs = Array.make cap (Note "");
    stamps = Array.make cap 0L;
    written = 0;
  }

(* Shared no-op ring: [record] drops the event after one field read, so
   instrumented paths stay unconditional (same shape as Recorder.disabled). *)
let disabled =
  {
    on = false;
    cap = 0;
    epoch = 0.;
    lock = Mutex.create ();
    evs = [||];
    stamps = [||];
    written = 0;
  }

let enabled t = t.on
let capacity t = t.cap

let now_ns t =
  if not t.on then 0L else Int64.of_float ((Unix.gettimeofday () -. t.epoch) *. 1e9)

let record t ev =
  if t.on then begin
    let at = now_ns t in
    Mutex.lock t.lock;
    let slot = t.written mod t.cap in
    t.evs.(slot) <- ev;
    t.stamps.(slot) <- at;
    t.written <- t.written + 1;
    Mutex.unlock t.lock
  end

let total t =
  if not t.on then 0
  else begin
    Mutex.lock t.lock;
    let n = t.written in
    Mutex.unlock t.lock;
    n
  end

let dropped t = max 0 (total t - t.cap)

(* The lifetime count and the surviving window, under one lock so the
   two always agree. *)
let read t =
  if not t.on then (0, [])
  else begin
    Mutex.lock t.lock;
    let written = t.written in
    let live = min written t.cap in
    let first = written - live in
    let out =
      List.init live (fun i ->
          let seq = first + i in
          let slot = seq mod t.cap in
          { seq; at_ns = t.stamps.(slot); ev = t.evs.(slot) })
    in
    Mutex.unlock t.lock;
    (written, out)
  end

let snapshot t = snd (read t)

type dump = Event.file

let window t ~reason =
  let recorded, entries = read t in
  {
    Event.reason;
    capacity_ = t.cap;
    recorded;
    dropped_ = max 0 (recorded - t.cap);
    metrics = [];
    entries;
  }

let dump t ~path ~reason = if t.on then Event.write ~path (window t ~reason)
let load = Event.load
let timeline entries ~ticket = List.filter (fun e -> Event.ticket_of e.ev = Some ticket) entries
