module Rng = Ftc_rng.Rng

type config = {
  n : int;
  alpha : float;
  seed : int;
  inputs : int array option;
  adversary : Adversary.t;
  link : Link.t;
  queue : Queue_model.config option;
  congest_limit : int option;
  trace : Trace.mode;
  max_rounds_override : int option;
  watchdog : (unit -> bool) option;
  round_clock : (unit -> int64) option;
}

type result = {
  decisions : Decision.t array;
  observations : Observation.t array;
  faulty : bool array;
  crashed : bool array;
  crash_round : int array;
  rounds_used : int;
  timed_out : bool;
  watchdog_expired : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  violations : Violation.t list;
  round_ns : int64 array;
}

let default_config ~n ~alpha ~seed =
  {
    n;
    alpha;
    seed;
    inputs = None;
    adversary = Adversary.none;
    link = Link.reliable;
    queue = None;
    congest_limit = Some (Congest.default_limit ~n);
    trace = Trace.Off;
    max_rounds_override = None;
    watchdog = None;
    round_clock = None;
  }

let validate_model ~n ~alpha =
  if n < 2 then Error "n must be at least 2"
  else if not (alpha > 0. && alpha <= 1.) then Error "alpha must be in (0, 1]"
  else Ok ()

let max_faulty ~n ~alpha =
  let non_faulty = int_of_float (ceil (alpha *. float_of_int n)) in
  max 0 (n - min n non_faulty)

(* The one round engine: a struct-of-arrays pipeline over codec
   protocols ({!Fast_protocol.S}). Every {!Protocol.S} reaches it through
   the generic codec {!Adapter.Make}; hand-written codec ports plug in
   directly. Each round runs the model's stages in a fixed order over
   fixed rng streams, so the whole execution is a function of the seed:

   1. step the active nodes in ascending order; sends resolve through
      {!Ports} at emit time, in the order each step emits them (this
      fixes the [wiring_rng] draws);
   2. CONGEST accounting per (edge, round);
   3. the adversary picks crashes from a view built over the engine's
      observation cache (see {!Fast_protocol.runtime.obs}), then its
      drop rule marks the crashed node's sends of the round;
   4. ingress queues and then the link offer each surviving send its
      fate in global send order;
   5. a forward pass counts and traces every send and opens
      receiver-side ports; a counting sort lays the deliveries out as
      next round's per-node inbox segments, in arrival order.

   Storage is flat: preallocated send buffers that grow by doubling,
   Bigarray inboxes, Bytes crash masks, and an active set so only
   nodes with work step. The differential suite in
   test/test_fast_engine.ml pins every protocol bit-identical to the
   reference closure interpreter in test/reference_engine.ml. *)

type send_flags = Bytes.t

let f_dropped = 1 (* lost to the sender's crash *)
let f_queue_dropped = 2 (* dropped by the destination's ingress queue *)
let f_link_dropped = 4 (* lost on a live link *)
let f_ecn = 8 (* congestion-marked by the ECN queue discipline *)

let flag_test (b : send_flags) i f = Char.code (Bytes.unsafe_get b i) land f <> 0
let flag_set (b : send_flags) i f =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor f))

let ba_create len =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 len)

(* Message buffers a run grows as it goes: the round's sends (struct of
   arrays) and the next round's inbox, both holding words at the widest
   codec's stride. Served instances, sweep trials and verifier states
   are many short runs per domain, and arrays past 256 words are
   allocated straight into the major heap, so each domain hands the
   buffers of its last run (up to [pool_max] messages) to the next
   instead of growing fresh ones. Nothing is read before it is written,
   so reused contents never leak into a run. *)
let max_words = 3

type buffers = {
  mutable cap : int;  (* sends *)
  mutable src : int array;
  mutable dst : int array;
  mutable bits : int array;
  mutable fport : int array;
  mutable flags : send_flags;
  mutable words : int array;
  mutable icap : int;  (* inbox messages *)
  mutable iwords : Fast_protocol.words_buf;
  mutable iport : int array;
  mutable iecn : Bytes.t;
}

let fresh_buffers cap =
  {
    cap;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    bits = Array.make cap 0;
    fport = Array.make cap (-1);
    flags = Bytes.make cap '\000';
    words = Array.make (cap * max_words) 0;
    icap = cap;
    iwords = ba_create (cap * max_words);
    iport = Array.make cap (-1);
    iecn = Bytes.make cap '\000';
  }

let pool_max = 1 lsl 16
let pool : buffers option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let take_buffers () =
  match Domain.DLS.get pool with
  | Some b ->
      Domain.DLS.set pool None;
      b
  | None -> fresh_buffers 64

let release_buffers b = if b.cap <= pool_max && b.icap <= pool_max then Domain.DLS.set pool (Some b)

(* At large n the per-round adversary view (an O(f) list of node_view
   records) is live all at once while it is being built, so with the
   default 256k-word minor heap nearly all of it is promoted and then
   immediately dies in the major heap — at n = 10^6 that is hundreds of
   megawords of promotion and most of the wall clock. A minor heap a
   few times larger than the biggest per-round burst lets those lists
   die young; the burst scales with f = alpha * n, so the target scales
   with n (capped — past ~256 MB the minor heap's own page faults cost
   more than the promotion it avoids). What little still promotes dies
   immediately, so a tighter space_overhead keeps the major heap from
   ballooning into syscall-heavy growth. One-way ratchets: never shrink
   a user-enlarged minor heap, never raise a user-tightened overhead. *)
let min_minor_heap_words n = max (8 * 1024 * 1024) (min (32 * 1024 * 1024) (32 * n))
let max_space_overhead = 80

let ensure_gc_tuning n =
  let g = Gc.get () in
  let minor = max g.Gc.minor_heap_size (min_minor_heap_words n) in
  let overhead = min g.Gc.space_overhead max_space_overhead in
  if minor <> g.Gc.minor_heap_size || overhead <> g.Gc.space_overhead then
    Gc.set { g with Gc.minor_heap_size = minor; space_overhead = overhead }

module Make_codec (P : Fast_protocol.S) = struct
  let words = P.words
  let () = if words < 1 || words > max_words then invalid_arg "Engine.Make_codec: words must be 1..3"

  let run config =
    let n = config.n in
    if n < 2 then invalid_arg "Engine.run: need at least 2 nodes";
    if n >= 65536 then ensure_gc_tuning n;
    let root = Rng.create config.seed in
    let node_rngs = Rng.split_n root n in
    let wiring_rng = Rng.split root in
    let adv_rng = Rng.split root in
    (* Split last so configs without link faults reproduce the streams of
       runs recorded before the link stage existed; the queue stream
       after that again, for the same reason. *)
    let link_rng = Rng.split root in
    let queue_rng = Rng.split root in
    let violations = ref [] in
    let violation v = violations := v :: !violations in
    let inputs =
      match config.inputs with
      | Some a ->
          if Array.length a <> n then invalid_arg "Engine.run: inputs length <> n";
          a
      | None -> Array.make n 0
    in
    let ports = Array.init n (fun _ -> Ports.create ()) in
    (* Faulty set. *)
    let f_budget = max_faulty ~n ~alpha:config.alpha in
    let faulty = Array.make n false in
    let chosen = config.adversary.Adversary.pick_faulty adv_rng ~n ~f:f_budget in
    let chosen_count = ref 0 in
    List.iter
      (fun v ->
        if v < 0 || v >= n then violation (Violation.Faulty_pick_out_of_range { node = v })
        else if faulty.(v) then violation (Violation.Faulty_pick_duplicate { node = v })
        else begin
          faulty.(v) <- true;
          incr chosen_count
        end)
      chosen;
    if !chosen_count > f_budget then
      violation (Violation.Faulty_budget_exceeded { picked = !chosen_count; budget = f_budget });
    (* Sorted id list of the faulty set, for O(f) adversary views. *)
    let faulty_ids =
      let c = ref 0 in
      for i = 0 to n - 1 do
        if faulty.(i) then incr c
      done;
      let a = Array.make !c 0 in
      let j = ref 0 in
      for i = 0 to n - 1 do
        if faulty.(i) then begin
          a.(!j) <- i;
          incr j
        end
      done;
      a
    in
    let crashed = Bytes.make n '\000' in
    let is_crashed i = Bytes.unsafe_get crashed i <> '\000' in
    let crash_round = Array.make n (-1) in
    let metrics = Metrics.create () in
    (* Events go straight into the sink through unboxed calls, so neither
       an untraced nor a tallied run allocates per event. *)
    let trace = Trace.create config.trace in
    let max_rounds =
      match config.max_rounds_override with
      | Some r -> r
      | None -> P.max_rounds ~n ~alpha:config.alpha
    in

    (* ---- Send buffer (struct of arrays, grows by doubling). ---- *)
    let buf = take_buffers () in
    let s_cap = ref buf.cap in
    let s_len = ref 0 in
    let s_src = ref buf.src in
    let s_dst = ref buf.dst in
    let s_bits = ref buf.bits in
    let s_fport = ref buf.fport in
    let s_flags = ref buf.flags in
    let s_words = ref buf.words in
    let grow_sends () =
      let cap' = !s_cap * 2 in
      let g a d =
        let a' = Array.make cap' d in
        Array.blit !a 0 a' 0 !s_cap;
        a := a'
      in
      g s_src 0;
      g s_dst 0;
      g s_bits 0;
      g s_fport (-1);
      let f' = Bytes.make cap' '\000' in
      Bytes.blit !s_flags 0 f' 0 !s_cap;
      s_flags := f';
      let w' = Array.make (cap' * max_words) 0 in
      Array.blit !s_words 0 w' 0 (!s_cap * words);
      s_words := w';
      s_cap := cap'
    in
    let push_send ~src ~dst ~bits w0 w1 w2 =
      if !s_len = !s_cap then grow_sends ();
      let i = !s_len in
      !s_src.(i) <- src;
      !s_dst.(i) <- dst;
      !s_bits.(i) <- bits;
      !s_fport.(i) <- -1;
      Bytes.unsafe_set !s_flags i '\000';
      let b = i * words in
      !s_words.(b) <- w0;
      if words > 1 then !s_words.(b + 1) <- w1;
      if words > 2 then !s_words.(b + 2) <- w2;
      s_len := i + 1
    in
    (* Per-node send ranges of the current round, validated by stamp.
       Only read for faulty nodes (crash drop rules, adversary views),
       so only their steps maintain them; [faulty_b] is the byte-mask
       twin of [faulty] for that hot-loop test. *)
    let snd_first = Array.make n 0 in
    let snd_end = Array.make n 0 in
    let snd_stamp = Array.make n (-1) in
    let faulty_b = Bytes.make n '\000' in
    Array.iter (fun i -> Bytes.set faulty_b i '\001') faulty_ids;

    (* ---- Active set: nodes to step next round. ---- *)
    let pending_flag = Bytes.make n '\000' in
    let pending_buf = Array.make n 0 in
    let pending_len = ref 0 in
    let add_pending i =
      if Bytes.unsafe_get pending_flag i = '\000' then begin
        Bytes.unsafe_set pending_flag i '\001';
        pending_buf.(!pending_len) <- i;
        incr pending_len
      end
    in
    let active_buf = Array.make n 0 in
    let active_len = ref 0 in
    (* Drain the pending set into [active_buf] in ascending node order,
       dropping crashed nodes and clearing the flags. Sparse pending
       sets sort their buffer; dense ones scan the flag bytes. *)
    let build_active () =
      active_len := 0;
      if !pending_len > n / 8 then
        for i = 0 to n - 1 do
          if Bytes.unsafe_get pending_flag i <> '\000' then begin
            Bytes.unsafe_set pending_flag i '\000';
            if not (is_crashed i) then begin
              active_buf.(!active_len) <- i;
              incr active_len
            end
          end
        done
      else begin
        let sub = Array.sub pending_buf 0 !pending_len in
        Array.sort (fun (a : int) b -> compare a b) sub;
        Array.iter
          (fun i ->
            Bytes.unsafe_set pending_flag i '\000';
            if not (is_crashed i) then begin
              active_buf.(!active_len) <- i;
              incr active_len
            end)
          sub
      end;
      pending_len := 0
    in

    (* ---- Round inbox (counting sort over delivered sends). ---- *)
    let ib_start = Array.make n 0 in
    let ib_count = Array.make n 0 in
    let ib_ptr = Array.make n 0 in
    let touched = Array.make n 0 in
    let touched_len = ref 0 in
    let inbox_cap = ref buf.icap in
    let rt_inbox_words = ref buf.iwords in
    let rt_inbox_port = ref buf.iport in
    let rt_inbox_ecn = ref buf.iecn in

    (* ---- Emit context and the protocol runtime. ---- *)
    let cur_src = ref (-1) in
    let cur_round = ref 0 in
    let total_sends = ref 0 in
    let resolved ~dst w0 w1 w2 =
      incr total_sends;
      push_send ~src:!cur_src ~dst ~bits:(P.msg_bits ~n w0) w0 w1 w2
    in
    (* A fresh port is numbered from the sender's current port count,
       and the peer's replies arrive through the same binding. When all
       n-1 peers are already known — only a broadcast over-approximating
       its fresh count gets there — the send is dropped, counted and
       traced, never silently. *)
    let emit_fresh w0 w1 w2 =
      let src = !cur_src in
      match Ports.fresh_peer wiring_rng ports.(src) ~n ~self:src with
      | None ->
          Metrics.record_unroutable metrics ~round:!cur_round;
          (match trace with Some t -> Trace.unroutable t ~round:!cur_round ~node:src | None -> ())
      | Some peer ->
          let _port = Ports.port_to ports.(src) peer in
          resolved ~dst:peer w0 w1 w2
    in
    let emit_port p w0 w1 w2 =
      let peer = Ports.peer_of_port_int ports.(!cur_src) p in
      if peer >= 0 then resolved ~dst:peer w0 w1 w2
      else violation (Violation.Unknown_port { node = !cur_src; port = p })
    in
    let emit_node d w0 w1 w2 =
      if P.knowledge = `KT0 then
        violation (Violation.Kt0_node_addressing { node = !cur_src; protocol = P.name })
      else if d < 0 || d >= n || d = !cur_src then
        violation (Violation.Invalid_destination { node = !cur_src; dst = d })
      else resolved ~dst:d w0 w1 w2
    in
    (* Live nodes whose decide is still [Undecided]; crossing zero with
       a quiescent network ends the run (stage 6). *)
    let live_undecided = ref 0 in
    (* Observation cache: filled by [P.create], kept current by the
       protocol itself (entries are replaced at the moment a node's
       observation changes), so the engine never polls [P.observe] in
       the round loop. *)
    let obs_cache = Array.make n Observation.bystander in
    let rt =
      {
        Fast_protocol.inbox_words = !rt_inbox_words;
        inbox_port = !rt_inbox_port;
        inbox_ecn = !rt_inbox_ecn;
        emit_fresh;
        emit_port;
        emit_node;
        port_count = (fun i -> Ports.count ports.(i));
        wake = add_pending;
        obs = obs_cache;
        note_decided = (fun _ -> decr live_undecided);
        note_undecided = (fun _ -> incr live_undecided);
      }
    in
    let t = P.create ~n ~alpha:config.alpha ~inputs ~node_rngs rt in
    for i = 0 to n - 1 do
      if P.decide t i = Decision.Undecided then incr live_undecided
    done;

    (* ---- CONGEST accounting scratch (per-destination, stamp-keyed:
       sends are grouped by ascending src, so each (src, dst) edge is a
       contiguous run and one stamped accumulator per dst suffices). ---- *)
    let edge_acc = Array.make n 0 in
    let edge_stamp = Array.make n (-1) in
    let run_id = ref 0 in
    (* Per-faulty-node view records, reused across rounds while the
       node's observation is physically unchanged and it has no pending
       sends (protocols replace their cached observation record on any
       change, so physical equality is a sound staleness check). The
       adversary view is rebuilt every round; without this the O(f)
       record churn dominates large-n runs. *)
    let nv_cache = Array.make (Array.length faulty_ids) None in
    (* Per-destination ingress-queue occupancy, reused across rounds. *)
    let queue_depth = Array.make n 0 in

    let round = ref 0 in
    let finished = ref false in
    let in_flight = ref false in
    let watchdog_expired = ref false in
    let watchdog_fired () =
      match config.watchdog with
      | Some poll when poll () ->
          watchdog_expired := true;
          true
      | _ -> false
    in
    let round_ns_rev = ref [] in
    let round_count = ref 0 in
    let round_started =
      ref (match config.round_clock with Some now -> now () | None -> 0L)
    in
    let record_round_time () =
      match config.round_clock with
      | None -> ()
      | Some now ->
          let t = now () in
          round_ns_rev := Int64.sub t !round_started :: !round_ns_rev;
          incr round_count;
          round_started := t
    in

    while (not !finished) && !round < max_rounds && not (watchdog_fired ()) do
      let r = !round in
      cur_round := r;
      (* 1. Step the active nodes (ascending) on their inboxes. *)
      build_active ();
      s_len := 0;
      total_sends := 0;
      for a = 0 to !active_len - 1 do
        let i = active_buf.(a) in
        cur_src := i;
        if Bytes.unsafe_get faulty_b i <> '\000' then begin
          snd_first.(i) <- !s_len;
          snd_stamp.(i) <- r
        end;
        P.step t ~node:i ~round:r ~inbox_start:ib_start.(i) ~inbox_count:ib_count.(i);
        if Bytes.unsafe_get faulty_b i <> '\000' then snd_end.(i) <- !s_len
      done;
      let s_count = !s_len in
      let src = !s_src and dst = !s_dst and bits = !s_bits in
      let fport = !s_fport and flags = !s_flags in
      (* 2. CONGEST accounting: flag each (edge, round) over budget once. *)
      (match config.congest_limit with
      | None -> ()
      | Some limit ->
          let cur = ref (-1) in
          for k = 0 to s_count - 1 do
            if src.(k) <> !cur then begin
              cur := src.(k);
              incr run_id
            end;
            let d = dst.(k) in
            let prev = if edge_stamp.(d) = !run_id then edge_acc.(d) else 0 in
            let total = prev + bits.(k) in
            if prev <= limit && total > limit then Metrics.record_violation metrics;
            edge_acc.(d) <- total;
            edge_stamp.(d) <- !run_id
          done);
      (* 3. Adversary decides this round's crashes. *)
      let alive_faulty =
        let acc = ref [] in
        for j = Array.length faulty_ids - 1 downto 0 do
          let i = faulty_ids.(j) in
          if not (is_crashed i) then begin
            let nv =
              if snd_stamp.(i) = r && snd_end.(i) > snd_first.(i) then begin
                let pending = ref [] in
                for k = snd_end.(i) - 1 downto snd_first.(i) do
                  pending := { Adversary.dst = dst.(k); bits = bits.(k) } :: !pending
                done;
                { Adversary.node = i; observation = obs_cache.(i); pending = !pending }
              end
              else
                match nv_cache.(j) with
                | Some nv when nv.Adversary.observation == obs_cache.(i) -> nv
                | _ ->
                    let nv =
                      { Adversary.node = i; observation = obs_cache.(i); pending = [] }
                    in
                    nv_cache.(j) <- Some nv;
                    nv
            in
            acc := nv :: !acc
          end
        done;
        !acc
      in
      let view = { Adversary.round = r; n; alive_faulty; all_observations = obs_cache } in
      let crash_orders = config.adversary.Adversary.decide_crashes adv_rng view in
      List.iter
        (fun (v, rule) ->
          if v < 0 || v >= n then violation (Violation.Crash_out_of_range { round = r; node = v })
          else if not faulty.(v) then violation (Violation.Crash_non_faulty { round = r; node = v })
          else if is_crashed v then violation (Violation.Crash_duplicate { round = r; node = v })
          else begin
            Bytes.set crashed v '\001';
            crash_round.(v) <- r;
            if P.decide t v = Decision.Undecided then decr live_undecided;
            (match trace with Some t -> Trace.crash t ~round:r ~node:v | None -> ());
            if snd_stamp.(v) = r then begin
              let first = snd_first.(v) and last = snd_end.(v) - 1 in
              match rule with
              | Adversary.Drop_all ->
                  for k = first to last do
                    flag_set flags k f_dropped
                  done
              | Adversary.Drop_none -> ()
              | Adversary.Drop_random p ->
                  for k = first to last do
                    if Ftc_rng.Dist.bernoulli adv_rng p then flag_set flags k f_dropped
                  done
              | Adversary.Keep_prefix kp ->
                  for k = first + kp to last do
                    flag_set flags k f_dropped
                  done
            end
          end)
        crash_orders;
      (* 3b. Ingress queues, in deterministic global send order. *)
      (match config.queue with
      | None -> ()
      | Some q ->
          Array.fill queue_depth 0 n 0;
          for k = 0 to s_count - 1 do
            if not (flag_test flags k f_dropped) then begin
              let d = dst.(k) in
              let occupancy = queue_depth.(d) in
              match Queue_model.decide q queue_rng ~occupancy with
              | Queue_model.Accept -> queue_depth.(d) <- occupancy + 1
              | Queue_model.Mark ->
                  flag_set flags k f_ecn;
                  queue_depth.(d) <- occupancy + 1
              | Queue_model.Drop -> flag_set flags k f_queue_dropped
            end
          done;
          let peak = ref 0 in
          for i = 0 to n - 1 do
            if queue_depth.(i) > !peak then peak := queue_depth.(i)
          done;
          if !peak > 0 then Metrics.record_queue_depth metrics ~round:r ~depth:!peak);
      (* 4. Link faults over what the crash and queue stages left. *)
      if config.link != Link.reliable then
        for k = 0 to s_count - 1 do
          if Char.code (Bytes.unsafe_get flags k) land (f_dropped lor f_queue_dropped) = 0
          then begin
            let view =
              {
                Link.round = r;
                src = src.(k);
                dst = dst.(k);
                bits = bits.(k);
                observations = obs_cache;
              }
            in
            if config.link.Link.drop link_rng view then flag_set flags k f_link_dropped
          end
        done;
      (* 5. Count, trace, and deliver: the forward pass fixes the
         metric/trace/port-opening order, then a counting sort lays
         each destination's arrivals out contiguously. *)
      let fw_msgs = ref 0 and fw_bits = ref 0 and fw_dropped = ref 0 in
      for k = 0 to s_count - 1 do
        let fl = Char.code (Bytes.unsafe_get flags k) in
        if fl land f_queue_dropped <> 0 then begin
          Metrics.record_queue_drop metrics ~round:r ~bits:bits.(k);
          match trace with
          | Some t ->
              Trace.send t ~round:r ~src:src.(k) ~dst:dst.(k) ~bits:bits.(k) ~delivered:false;
              Trace.queue_dropped t ~round:r ~src:src.(k) ~dst:dst.(k) ~bits:bits.(k)
          | None -> ()
        end
        else if fl land f_link_dropped <> 0 then begin
          Metrics.record_link_loss metrics ~round:r ~bits:bits.(k);
          match trace with
          | Some t ->
              Trace.send t ~round:r ~src:src.(k) ~dst:dst.(k) ~bits:bits.(k) ~delivered:false;
              Trace.link_lost t ~round:r ~src:src.(k) ~dst:dst.(k) ~bits:bits.(k)
          | None -> ()
        end
        else begin
          let delivered = fl land f_dropped = 0 in
          incr fw_msgs;
          fw_bits := !fw_bits + bits.(k);
          if not delivered then incr fw_dropped;
          (match trace with
          | Some t -> Trace.send t ~round:r ~src:src.(k) ~dst:dst.(k) ~bits:bits.(k) ~delivered
          | None -> ());
          if delivered then begin
            fport.(k) <- Ports.port_to ports.(dst.(k)) src.(k);
            if fl land f_ecn <> 0 then begin
              Metrics.record_ecn_mark metrics ~round:r;
              match trace with
              | Some t -> Trace.ecn_marked t ~round:r ~src:src.(k) ~dst:dst.(k)
              | None -> ()
            end
          end
        end
      done;
      Metrics.record_send_batch metrics ~round:r ~msgs:!fw_msgs ~bits:!fw_bits
        ~dropped:!fw_dropped;
      (* Counting sort into next round's inbox. Clear last round's
         counts first (only the touched entries), then count, lay out
         segments, and copy forward — forward order within a segment is
         arrival order. Deliveries to a node crashed this round are
         skipped: it never steps again. *)
      for j = 0 to !touched_len - 1 do
        ib_count.(touched.(j)) <- 0
      done;
      touched_len := 0;
      let delivered_to k =
        (* delivered and worth storing *)
        fport.(k) >= 0
        && Char.code (Bytes.unsafe_get flags k)
           land (f_dropped lor f_queue_dropped lor f_link_dropped)
           = 0
        && not (is_crashed dst.(k))
      in
      let delivered_count = ref 0 in
      for k = 0 to s_count - 1 do
        if delivered_to k then begin
          let d = dst.(k) in
          if ib_count.(d) = 0 then begin
            touched.(!touched_len) <- d;
            incr touched_len
          end;
          ib_count.(d) <- ib_count.(d) + 1;
          incr delivered_count
        end
      done;
      if !delivered_count > !inbox_cap then begin
        while !delivered_count > !inbox_cap do
          inbox_cap := !inbox_cap * 2
        done;
        rt_inbox_words := ba_create (!inbox_cap * max_words);
        rt_inbox_port := Array.make !inbox_cap (-1);
        rt_inbox_ecn := Bytes.make !inbox_cap '\000';
        rt.Fast_protocol.inbox_words <- !rt_inbox_words;
        rt.Fast_protocol.inbox_port <- !rt_inbox_port;
        rt.Fast_protocol.inbox_ecn <- !rt_inbox_ecn
      end;
      let acc = ref 0 in
      for j = 0 to !touched_len - 1 do
        let d = touched.(j) in
        ib_start.(d) <- !acc;
        ib_ptr.(d) <- !acc;
        acc := !acc + ib_count.(d)
      done;
      let iw = !rt_inbox_words and ip = !rt_inbox_port and ie = !rt_inbox_ecn in
      let sw = !s_words in
      for k = 0 to s_count - 1 do
        if delivered_to k then begin
          let d = dst.(k) in
          let p = ib_ptr.(d) in
          ib_ptr.(d) <- p + 1;
          ip.(p) <- fport.(k);
          Bytes.unsafe_set ie p
            (if flag_test flags k f_ecn then '\001' else '\000');
          let b = p * words and sb = k * words in
          iw.{b} <- sw.(sb);
          if words > 1 then iw.{b + 1} <- sw.(sb + 1);
          if words > 2 then iw.{b + 2} <- sw.(sb + 2);
          add_pending d
        end
      done;
      (* 6. Early stop: network quiescent and every live node decided. *)
      in_flight := !total_sends > 0;
      if !total_sends = 0 && !live_undecided = 0 then finished := true;
      record_round_time ();
      incr round
    done;
    Metrics.finish metrics ~rounds:!round;
    buf.cap <- !s_cap;
    buf.src <- !s_src;
    buf.dst <- !s_dst;
    buf.bits <- !s_bits;
    buf.fport <- !s_fport;
    buf.flags <- !s_flags;
    buf.words <- !s_words;
    buf.icap <- !inbox_cap;
    buf.iwords <- !rt_inbox_words;
    buf.iport <- !rt_inbox_port;
    buf.iecn <- !rt_inbox_ecn;
    release_buffers buf;
    let round_ns =
      if !round_count = 0 then [||]
      else begin
        (* Rounds of equal duration share one box. Durations repeat
           (quiet rounds, and the runner's clock counts microseconds),
           and sweeps keep every result: at n = 256 an election's 150
           rounds hold about 65 distinct values. *)
        let a = Array.make !round_count 0L in
        let boxes = Hashtbl.create 64 in
        let i = ref (!round_count - 1) in
        List.iter
          (fun d ->
            a.(!i) <-
              (match Hashtbl.find_opt boxes d with
              | Some b -> b
              | None ->
                  Hashtbl.add boxes d d;
                  d);
            decr i)
          !round_ns_rev;
        a
      end
    in
    {
      decisions = Array.init n (fun i -> P.decide t i);
      observations = Array.init n (fun i -> P.observe t i);
      faulty;
      crashed = Array.init n is_crashed;
      crash_round;
      rounds_used = !round;
      timed_out = (not !finished) && !in_flight && not !watchdog_expired;
      watchdog_expired = !watchdog_expired;
      metrics;
      trace;
      violations = List.rev !violations;
      round_ns;
    }
end

module Make (P : Protocol.S) = Make_codec (Adapter.Make (P))
