type monitor = {
  now_ns : unit -> int64;
  enqueued : depth:int -> unit;
  job_done : worker:int -> enqueued_ns:int64 -> started_ns:int64 -> finished_ns:int64 -> unit;
}

(* Worker domains outlive the calls they serve. A domain that exits
   leaves its heap pools to be adopted with whatever they still hold,
   so a sweep that ran a map per batch grew its heap by a few pools per
   batch for as long as it ran; parked domains keep reusing theirs. A
   parked domain waits here for the next call's work. *)
let spare_lock = Mutex.create ()
let spare_ready = Condition.create ()
let spare_work : (unit -> unit) Queue.t = Queue.create ()
let spare_idle = ref 0

let rec spare_loop () =
  Mutex.lock spare_lock;
  incr spare_idle;
  while Queue.is_empty spare_work do
    Condition.wait spare_ready spare_lock
  done;
  decr spare_idle;
  let work = Queue.take spare_work in
  Mutex.unlock spare_lock;
  work ();
  spare_loop ()

(* [work] must not raise: it would end the domain's [spare_loop]. *)
let start_domain work =
  Mutex.lock spare_lock;
  Queue.push work spare_work;
  let parked = !spare_idle >= Queue.length spare_work in
  if parked then Condition.signal spare_ready;
  Mutex.unlock spare_lock;
  if not parked then ignore (Domain.spawn spare_loop : unit Domain.t)

let run_workers ~jobs f =
  if jobs < 1 then invalid_arg "Pool.run_workers: jobs must be >= 1";
  let failure = Atomic.make None in
  let run w =
    try f w
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)))
  in
  (* The latch's mutex also orders every worker's writes before the
     caller's reads once [running] reaches 0. *)
  let lock = Mutex.create () and finished = Condition.create () in
  let running = ref (jobs - 1) in
  for w = 1 to jobs - 1 do
    start_domain (fun () ->
        run w;
        Mutex.lock lock;
        decr running;
        if !running = 0 then Condition.signal finished;
        Mutex.unlock lock)
  done;
  run 0;
  Mutex.lock lock;
  while !running > 0 do
    Condition.wait finished lock
  done;
  Mutex.unlock lock;
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Workers claim item indices from one atomic cursor until it runs past
   the end or [stop] says so; [one i x] handles item [i]. *)
let claim_all ?monitor ~jobs ~stop items one =
  let count = Array.length items in
  let next = Atomic.make 0 in
  let enqueued_ns =
    match monitor with
    | Some m ->
        m.enqueued ~depth:count;
        m.now_ns ()
    | None -> 0L
  in
  run_workers ~jobs:(max 1 (min jobs count)) (fun worker ->
      let rec loop () =
        if not (stop ()) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < count then begin
            (match monitor with
            | None -> one i items.(i)
            | Some m ->
                let started_ns = m.now_ns () in
                one i items.(i);
                m.job_done ~worker ~enqueued_ns ~started_ns ~finished_ns:(m.now_ns ()));
            loop ()
          end
        end
      in
      loop ())

let run_map ?monitor ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.run_map: jobs must be >= 1";
  if jobs = 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make (Array.length items) None in
    let failed = Atomic.make false in
    claim_all ?monitor ~jobs ~stop:(fun () -> Atomic.get failed) items (fun i x ->
        match f x with
        | v -> results.(i) <- Some v
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Atomic.set failed true;
            Printexc.raise_with_backtrace e bt);
    Array.to_list (Array.map Option.get results)
  end

let run_map_results ?monitor ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.run_map_results: jobs must be >= 1";
  let attempt x =
    match f x with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  if jobs = 1 then List.map attempt xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make (Array.length items) None in
    claim_all ?monitor ~jobs ~stop:(fun () -> false) items (fun i x ->
        results.(i) <- Some (attempt x));
    Array.to_list (Array.map Option.get results)
  end
