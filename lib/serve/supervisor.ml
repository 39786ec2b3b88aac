module Respawn = Ftc_parallel.Respawn
module Case = Ftc_chaos.Case
module Catalog = Ftc_chaos.Catalog
module Flight = Ftc_telemetry.Flight

type instance = {
  ticket : int;
  conn : int;
  submit : Wire.submit;
  mutable attempts : int;
  enqueued_at : float;
}

type outcome =
  | Finished of { ok : bool; detail : string; rounds : int; msgs : int; bits : int }
  | Watchdog_expired
  | Killed
  | Crash_budget_exhausted of string
  | Exn of string

type completion = { inst : instance; outcome : outcome; service_ms : float }

let max_attempts = 3

(* The injected worker-death vehicle: raised out of the watchdog
   closure at a round boundary, it escapes the worker body and the
   domain terminates — exactly the shape of a genuine escaped
   exception, which takes the same path. *)
exception Worker_crash of int

type worker = {
  idx : int;
  mutable handle : Respawn.t option;
  current : instance option Atomic.t;
  round : int Atomic.t;  (* watchdog polls of the running instance *)
  mutable respawns : int;  (* written by tick, event-loop domain only *)
}

type t = {
  queue : instance Admission.t;
  inject : Inject.t;
  default_timeout_ms : int;
  notify : unit -> unit;
  flight : Flight.t;
  counters : Inject.Counters.t;
  lock : Mutex.t;
  done_q : completion Queue.t;
  mutable restart_count : int;
  workers : worker array;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let push t c =
  Mutex.lock t.lock;
  Queue.push c t.done_q;
  Mutex.unlock t.lock;
  t.notify ()

let completions t =
  Mutex.lock t.lock;
  let out = List.of_seq (Queue.to_seq t.done_q) in
  Queue.clear t.done_q;
  Mutex.unlock t.lock;
  out

(* One instance = one chaos case, fault-free plan, adversary by name,
   inputs regenerated from the case seed exactly as [ftc sweep] does. *)
let run_instance t w inst =
  let s = inst.submit in
  match Catalog.find s.protocol with
  | None -> Exn (Printf.sprintf "unknown protocol %S" s.protocol)
  | Some entry -> (
      let case =
        {
          Case.protocol = s.protocol;
          n = s.n;
          alpha = s.alpha;
          seed = s.seed;
          inputs = Catalog.gen_inputs entry ~n:s.n ~seed:s.seed;
          plan = [];
          adversary = (if s.adversary = "none" then None else Some s.adversary);
          loss = Ftc_fault.Omission.No_loss;
          queue = None;
          transport = false;
        }
      in
      (* Injection decisions are per (ticket, attempt): a retried
         instance rolls fresh dice, so a worker-killing instance does
         not assassinate every replacement worker in turn. *)
      let salt = (inst.ticket * 8) + inst.attempts in
      let kill_instance = Inject.fire t.inject Inject.Kill_instance ~salt in
      let kill_worker = Inject.fire t.inject Inject.Kill_worker ~salt in
      let deadline =
        now_ms () +. float_of_int (Option.value s.timeout_ms ~default:t.default_timeout_ms)
      in
      let killed = ref false in
      let polls = ref 0 in
      let watchdog () =
        incr polls;
        Atomic.set w.round !polls;
        Flight.record t.flight (Flight.Round { ticket = inst.ticket; round = !polls });
        if kill_worker && !polls >= 3 then begin
          Inject.Counters.bump t.counters Inject.Kill_worker;
          Flight.record t.flight
            (Flight.Injected { kind = Inject.kind_to_string Inject.Kill_worker; ticket = inst.ticket });
          raise (Worker_crash inst.ticket)
        end;
        if kill_instance && !polls >= 2 then begin
          if not !killed then begin
            Inject.Counters.bump t.counters Inject.Kill_instance;
            Flight.record t.flight
              (Flight.Injected
                 { kind = Inject.kind_to_string Inject.Kill_instance; ticket = inst.ticket })
          end;
          killed := true;
          true
        end
        else now_ms () > deadline
      in
      match Case.run ~watchdog case with
      | Error e -> Exn (Case.error_to_string e)
      | Ok ((result : Ftc_sim.Engine.result), findings) ->
          if result.watchdog_expired then if !killed then Killed else Watchdog_expired
          else
            let detail =
              findings
              |> List.map (fun (f : Ftc_chaos.Oracle.finding) -> f.oracle ^ ": " ^ f.detail)
              |> String.concat "; "
            in
            Finished
              {
                ok = findings = [];
                detail;
                rounds = result.rounds_used;
                msgs = result.metrics.msgs_sent;
                bits = result.metrics.bits_sent;
              })

let worker_body t w () =
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some inst ->
        inst.attempts <- inst.attempts + 1;
        Atomic.set w.round 0;
        Atomic.set w.current (Some inst);
        Flight.record t.flight
          (Flight.Started { ticket = inst.ticket; attempt = inst.attempts; worker = w.idx });
        let started = now_ms () in
        let outcome = run_instance t w inst in
        let service_ms = now_ms () -. started in
        Atomic.set w.current None;
        (* Publish the completion before releasing the in-flight slot:
           once the queue reads quiescent, every completion is already
           visible to the server. *)
        push t { inst; outcome; service_ms };
        Admission.complete t.queue ~service_ms;
        loop ()
  in
  loop ()

let create ?(flight = Flight.disabled) ?counters ~workers ~queue ~inject ~default_timeout_ms
    ~notify () =
  if workers < 1 then invalid_arg "Supervisor.create: workers must be at least 1";
  let counters = match counters with Some c -> c | None -> Inject.Counters.create () in
  let t =
    {
      queue;
      inject;
      default_timeout_ms;
      notify;
      flight;
      counters;
      lock = Mutex.create ();
      done_q = Queue.create ();
      restart_count = 0;
      workers =
        Array.init workers (fun idx ->
            { idx; handle = None; current = Atomic.make None; round = Atomic.make 0; respawns = 0 });
    }
  in
  Array.iteri
    (fun i w -> w.handle <- Some (Respawn.start ~name:(Printf.sprintf "serve-%d" i) (worker_body t w)))
    t.workers;
  t

let exn_to_string = function
  | Worker_crash ticket -> Printf.sprintf "injected worker kill (ticket %d)" ticket
  | e -> Printexc.to_string e

(* Reap-and-respawn. The crashed worker's in-flight instance goes back
   to the front of the queue — or, past its crash budget, straight to
   a terminal completion, keeping the exactly-one-reply invariant. *)
let tick t =
  let restarted = ref 0 in
  Array.iter
    (fun w ->
      let h = Option.get w.handle in
      match Respawn.state h with
      | Respawn.Running | Respawn.Done -> ()
      | Respawn.Crashed e -> (
          ignore (Respawn.reap h);
          let victim = Atomic.exchange w.current None in
          Flight.record t.flight
            (Flight.Reaped
               {
                 worker = w.idx;
                 ticket = Option.map (fun i -> i.ticket) victim;
                 detail = exn_to_string e;
               });
          (match victim with
          | None -> ()
          | Some inst ->
              if inst.attempts >= max_attempts then begin
                Flight.record t.flight (Flight.Budget_exhausted { ticket = inst.ticket });
                push t
                  {
                    inst;
                    outcome = Crash_budget_exhausted (exn_to_string e);
                    service_ms = now_ms () -. (inst.enqueued_at *. 1000.);
                  };
                Admission.complete t.queue ~service_ms:0.
              end
              else begin
                Flight.record t.flight
                  (Flight.Requeued { ticket = inst.ticket; attempt = inst.attempts });
                Admission.requeue t.queue inst
              end);
          (* Replace the dead worker unless the drain is already over —
             a worker spawned after quiescence would exit immediately.
             The ring entry goes first: once spawned, the new worker may
             start the requeued instance at once, and its [Started] must
             not overtake the [Respawned] that caused it. *)
          if not (Admission.quiescent t.queue) then begin
            Flight.record t.flight
              (Flight.Respawned
                 { worker = w.idx; ticket = Option.map (fun i -> i.ticket) victim });
            Respawn.respawn h;
            t.restart_count <- t.restart_count + 1;
            w.respawns <- w.respawns + 1;
            incr restarted
          end))
    t.workers;
  !restarted

let restarts t = t.restart_count

let views t =
  Array.to_list
    (Array.map
       (fun w ->
         match Atomic.get w.current with
         | Some inst ->
             {
               Wire.w_idx = w.idx;
               w_busy = true;
               w_ticket = inst.ticket;
               w_round = Atomic.get w.round;
               w_respawns = w.respawns;
             }
         | None ->
             {
               Wire.w_idx = w.idx;
               w_busy = false;
               w_ticket = -1;
               w_round = 0;
               w_respawns = w.respawns;
             })
       t.workers)

let workers_alive t =
  Array.fold_left
    (fun acc w -> if Respawn.alive (Option.get w.handle) then acc + 1 else acc)
    0 t.workers

let join t ~grace_ms =
  let deadline = now_ms () +. float_of_int grace_ms in
  let rec loop () =
    ignore (tick t);
    if workers_alive t = 0 then begin
      Array.iter (fun w -> Respawn.join (Option.get w.handle)) t.workers;
      true
    end
    else if now_ms () > deadline then false
    else begin
      Unix.sleepf 0.005;
      loop ()
    end
  in
  loop ()
