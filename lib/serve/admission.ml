type 'a t = {
  bound : int;
  workers : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  pending : 'a Queue.t;
  mutable in_flight : int;
  mutable draining : bool;
  mutable peak_open : int;
  (* Service-time EWMA, ms. Seeded pessimistically so the first hints
     are conservative rather than zero. *)
  mutable ewma_ms : float;
}

let create ~bound ~workers () =
  if bound < 1 then invalid_arg "Admission.create: bound must be at least 1";
  if workers < 1 then invalid_arg "Admission.create: workers must be at least 1";
  {
    bound;
    workers;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    pending = Queue.create ();
    in_flight = 0;
    draining = false;
    peak_open = 0;
    ewma_ms = 50.;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let open_unlocked t = Queue.length t.pending + t.in_flight

(* Hint: time for the backlog ahead of a new arrival to clear at the
   measured per-worker service rate, clamped to [1ms, 30s]. *)
let hint_unlocked t =
  let backlog = float_of_int (max 1 (open_unlocked t)) in
  let ms = backlog *. t.ewma_ms /. float_of_int t.workers in
  int_of_float (Float.min 30_000. (Float.max 1. ms))

type admit_outcome = Admitted | Shed_full of int | Shed_draining of int

let admit ?(on_admit = ignore) t x =
  locked t (fun () ->
      if t.draining then Shed_draining (hint_unlocked t)
      else if open_unlocked t >= t.bound then Shed_full (hint_unlocked t)
      else begin
        on_admit ();
        Queue.push x t.pending;
        let o = open_unlocked t in
        if o > t.peak_open then t.peak_open <- o;
        Condition.signal t.nonempty;
        Admitted
      end)

let take t =
  locked t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.pending) then begin
          let x = Queue.pop t.pending in
          t.in_flight <- t.in_flight + 1;
          Some x
        end
        else if t.draining then None
        else begin
          Condition.wait t.nonempty t.lock;
          wait ()
        end
      in
      wait ())

let try_take t =
  locked t (fun () ->
      if Queue.is_empty t.pending then None
      else begin
        let x = Queue.pop t.pending in
        t.in_flight <- t.in_flight + 1;
        Some x
      end)

let complete t ~service_ms =
  locked t (fun () ->
      t.in_flight <- t.in_flight - 1;
      t.ewma_ms <- (0.8 *. t.ewma_ms) +. (0.2 *. Float.max 0. service_ms);
      (* Draining workers park in [take]'s wait only while not draining,
         so no wake-up is needed here; quiescence is polled. *)
      if t.in_flight < 0 then t.in_flight <- 0)

let requeue t x =
  locked t (fun () ->
      t.in_flight <- t.in_flight - 1;
      (* Front of the queue: the victim has already waited its turn. *)
      let rest = Queue.copy t.pending in
      Queue.clear t.pending;
      Queue.push x t.pending;
      Queue.transfer rest t.pending;
      Condition.signal t.nonempty)

let drain t =
  locked t (fun () ->
      t.draining <- true;
      Condition.broadcast t.nonempty)

let draining t = locked t (fun () -> t.draining)
let bound t = t.bound
let ewma_ms t = locked t (fun () -> t.ewma_ms)
let pending t = locked t (fun () -> Queue.length t.pending)
let open_count t = locked t (fun () -> open_unlocked t)
let peak_open t = locked t (fun () -> t.peak_open)
let quiescent t = locked t (fun () -> t.draining && open_unlocked t = 0)
let retry_after_ms t = locked t (fun () -> hint_unlocked t)
