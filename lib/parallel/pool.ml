type monitor = {
  now_ns : unit -> int64;
  enqueued : depth:int -> unit;
  job_done : worker:int -> enqueued_ns:int64 -> started_ns:int64 -> finished_ns:int64 -> unit;
}

type t = {
  lock : Mutex.t;
  work_ready : Condition.t;
  queue : (int64 * (unit -> unit)) Queue.t;  (* (enqueue stamp, job) *)
  mutable stopping : bool;
  mutable running : int;  (* workers still serving this pool *)
  mutable failed : exn option;  (* what a worker died of, for [shutdown] *)
  stopped : Condition.t;  (* broadcast when [running] reaches 0 *)
  jobs : int;
  dropped : int Atomic.t;
  sink : (exn -> Printexc.raw_backtrace -> unit) Atomic.t;
  monitor : monitor option;
}

let jobs t = t.jobs
let dropped_exceptions t = Atomic.get t.dropped
let set_exception_sink t f = Atomic.set t.sink f

(* Workers park on [work_ready] until a job or the shutdown flag shows
   up. A worker only exits once the flag is set AND the queue is drained,
   so shutdown never strands submitted work. *)
let worker_loop pool worker () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.work_ready pool.lock
    done;
    match Queue.take_opt pool.queue with
    | None ->
        (* stopping && empty *)
        Mutex.unlock pool.lock
    | Some (enqueued_ns, job) ->
        Mutex.unlock pool.lock;
        let started_ns = match pool.monitor with Some m -> m.now_ns () | None -> 0L in
        (try job ()
         with e ->
           (* A raw [submit] job escaped with an exception. Losing it
              silently hid real bugs (issue: supervision); count it and
              hand it to the pool's sink so the caller can at least log. *)
           let bt = Printexc.get_raw_backtrace () in
           Atomic.incr pool.dropped;
           (try (Atomic.get pool.sink) e bt with _ -> ()));
        (match pool.monitor with
        | Some m -> m.job_done ~worker ~enqueued_ns ~started_ns ~finished_ns:(m.now_ns ())
        | None -> ());
        loop ()
  in
  loop ()

let leave pool failure =
  Mutex.lock pool.lock;
  if pool.failed = None then pool.failed <- failure;
  pool.running <- pool.running - 1;
  if pool.running = 0 then Condition.broadcast pool.stopped;
  Mutex.unlock pool.lock

(* Worker domains outlive the pools they serve. A domain that exits
   leaves its heap pools to be adopted with whatever they still hold,
   so a sweep that built a pool per batch grew its heap by a few pools
   per batch for as long as it ran; parked domains keep reusing theirs.
   A parked domain waits here for the next pool's worker loop. *)
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

let start_worker pool worker =
  let work () =
    match worker_loop pool worker () with
    | () -> leave pool None
    | exception e -> leave pool (Some e)
  in
  Mutex.lock spare_lock;
  Queue.push work spare_work;
  let parked = !spare_idle >= Queue.length spare_work in
  if parked then Condition.signal spare_ready;
  Mutex.unlock spare_lock;
  if not parked then ignore (Domain.spawn spare_loop : unit Domain.t)

let create ?monitor ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      running = jobs;
      failed = None;
      stopped = Condition.create ();
      jobs;
      dropped = Atomic.make 0;
      sink = Atomic.make (fun _ _ -> ());
      monitor;
    }
  in
  for worker = 0 to jobs - 1 do
    start_worker pool worker
  done;
  pool

let submit pool job =
  let stamp = match pool.monitor with Some m -> m.now_ns () | None -> 0L in
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push (stamp, job) pool.queue;
  let depth = Queue.length pool.queue in
  Condition.signal pool.work_ready;
  Mutex.unlock pool.lock;
  (* Outside the lock: a monitor callback must not be able to deadlock
     the pool, whatever it does. *)
  match pool.monitor with Some m -> m.enqueued ~depth | None -> ()

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work_ready;
  while pool.running > 0 do
    Condition.wait pool.stopped pool.lock
  done;
  let failed = pool.failed in
  pool.failed <- None;
  Mutex.unlock pool.lock;
  Option.iter raise failed

let with_pool ?monitor ~jobs f =
  let pool = create ?monitor ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let map pool f xs =
  let items = Array.of_list xs in
  let count = Array.length items in
  if count = 0 then []
  else begin
    (* Result slots are written by worker domains at distinct indices and
       read by the caller only after the done-latch below, whose mutex
       gives the necessary happens-before edge. *)
    let results = Array.make count None in
    let failure = Atomic.make None in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let pending = ref count in
    let job_done () =
      Mutex.lock done_lock;
      decr pending;
      if !pending = 0 then Condition.signal all_done;
      Mutex.unlock done_lock
    in
    Array.iteri
      (fun i x ->
        submit pool (fun () ->
            (* First failure cancels jobs that have not started yet; the
               completed slots are discarded with the whole map. *)
            (if Atomic.get failure = None then
               match f x with
               | v -> results.(i) <- Some v
               | exception e ->
                   let bt = Printexc.get_raw_backtrace () in
                   ignore (Atomic.compare_and_set failure None (Some (e, bt))));
            job_done ()))
      items;
    Mutex.lock done_lock;
    while !pending > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None -> assert false (* no failure => every slot was filled *))
         results)
  end

let run_map ?monitor ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.run_map: jobs must be >= 1";
  if jobs = 1 then List.map f xs else with_pool ?monitor ~jobs (fun pool -> map pool f xs)

(* Like [map], but nothing is cancelled and nothing re-raised: every job
   runs to completion and each slot records its own outcome. This is the
   primitive the sweep supervisor's --keep-going mode is built on. *)
let map_results pool f xs =
  let items = Array.of_list xs in
  let count = Array.length items in
  if count = 0 then []
  else begin
    let results = Array.make count None in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let pending = ref count in
    let job_done () =
      Mutex.lock done_lock;
      decr pending;
      if !pending = 0 then Condition.signal all_done;
      Mutex.unlock done_lock
    in
    Array.iteri
      (fun i x ->
        submit pool (fun () ->
            (match f x with
            | v -> results.(i) <- Some (Ok v)
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                results.(i) <- Some (Error (e, bt)));
            job_done ()))
      items;
    Mutex.lock done_lock;
    while !pending > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let run_map_results ?monitor ~jobs f xs =
  if jobs < 1 then invalid_arg "Pool.run_map_results: jobs must be >= 1";
  if jobs = 1 then
    List.map
      (fun x ->
        match f x with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      xs
  else with_pool ?monitor ~jobs (fun pool -> map_results pool f xs)
