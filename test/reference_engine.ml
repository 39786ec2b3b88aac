(* Reference interpreter for the round model: the closure engine the
   struct-of-arrays engine replaced, kept as the differential suite's
   specification. It steps every live node every round on a view of a
   list inbox, resolves each send as the step makes it, and runs the
   round stages literally, one send record at a time:

   1. step every live node, resolving its sends in order;
   2. CONGEST accounting per (edge, round);
   3. the adversary picks crashes from observations of every node, and
      its drop rule marks the crashed node's sends of the round;
   4. ingress queues, then the link, in global send order;
   5. count, trace and deliver in global send order.

   It uses the same rng splits as the engine, so both compute the same
   execution for a seed; it is slow and allocation-heavy, and only
   meant for the small n the tests run. *)

module Rng = Ftc_rng.Rng
module Engine = Ftc_sim.Engine
module Protocol = Ftc_sim.Protocol
module Adversary = Ftc_sim.Adversary
module Link = Ftc_sim.Link
module Queue_model = Ftc_sim.Queue_model
module Metrics = Ftc_sim.Metrics
module Trace = Ftc_sim.Trace
module Ports = Ftc_sim.Ports
module Violation = Ftc_sim.Violation
module Decision = Ftc_sim.Decision

type 'msg send = {
  src : int;
  dst : int;
  bits : int;
  payload : 'msg;
  mutable dropped : bool;  (* lost to the sender's crash *)
  mutable queue_dropped : bool;
  mutable link_dropped : bool;
  mutable ecn : bool;
}

module Make (P : Protocol.S) = struct
  let run (config : Engine.config) =
    let n = config.n in
    let root = Rng.create config.seed in
    let node_rngs = Rng.split_n root n in
    let wiring_rng = Rng.split root in
    let adv_rng = Rng.split root in
    let link_rng = Rng.split root in
    let queue_rng = Rng.split root in
    let violations = ref [] in
    let violation v = violations := v :: !violations in
    let inputs = Option.value config.inputs ~default:(Array.make n 0) in
    let ctxs =
      Array.init n (fun i ->
          {
            Protocol.n;
            alpha = config.alpha;
            input = inputs.(i);
            rng = node_rngs.(i);
            self = (match P.knowledge with `KT1 -> Some i | `KT0 -> None);
          })
    in
    let states = Array.map P.init ctxs in
    let ports = Array.init n (fun _ -> Ports.create ()) in
    let f_budget = Engine.max_faulty ~n ~alpha:config.alpha in
    let faulty = Array.make n false in
    let picked = ref 0 in
    List.iter
      (fun v ->
        if v < 0 || v >= n then violation (Violation.Faulty_pick_out_of_range { node = v })
        else if faulty.(v) then violation (Violation.Faulty_pick_duplicate { node = v })
        else begin
          faulty.(v) <- true;
          incr picked
        end)
      (config.adversary.Adversary.pick_faulty adv_rng ~n ~f:f_budget);
    if !picked > f_budget then
      violation (Violation.Faulty_budget_exceeded { picked = !picked; budget = f_budget });
    let crashed = Array.make n false in
    let crash_round = Array.make n (-1) in
    let metrics = Metrics.create () in
    let trace = Trace.create config.trace in
    let trace_add e = Option.iter (fun t -> Trace.add t e) trace in
    let inboxes = Array.make n [] in
    let max_rounds =
      Option.value config.max_rounds_override ~default:(P.max_rounds ~n ~alpha:config.alpha)
    in
    let resolve ~round src = function
      | Protocol.Fresh_port -> (
          match Ports.fresh_peer wiring_rng ports.(src) ~n ~self:src with
          | None ->
              Metrics.record_unroutable metrics ~round;
              trace_add (Trace.Unroutable { round; node = src });
              None
          | Some peer ->
              ignore (Ports.port_to ports.(src) peer);
              Some peer)
      | Protocol.Port p -> (
          match Ports.peer_of_port ports.(src) p with
          | Some peer -> Some peer
          | None ->
              violation (Violation.Unknown_port { node = src; port = p });
              None)
      | Protocol.Node d ->
          if P.knowledge = `KT0 then begin
            violation (Violation.Kt0_node_addressing { node = src; protocol = P.name });
            None
          end
          else if d < 0 || d >= n || d = src then begin
            violation (Violation.Invalid_destination { node = src; dst = d });
            None
          end
          else Some d
    in
    let round = ref 0 and finished = ref false and in_flight = ref false in
    let watchdog_expired = ref false in
    let watchdog_fired () =
      match config.watchdog with
      | Some poll when poll () ->
          watchdog_expired := true;
          true
      | _ -> false
    in
    while (not !finished) && !round < max_rounds && not (watchdog_fired ()) do
      let r = !round in
      (* 1. Step. *)
      let by_node =
        Array.init n (fun i ->
            let inbox = inboxes.(i) in
            inboxes.(i) <- [];
            if crashed.(i) then []
            else begin
              let out = ref [] in
              let emit dest payload =
                match resolve ~round:r i dest with
                | None -> ()
                | Some dst ->
                    out :=
                      {
                        src = i;
                        dst;
                        bits = P.msg_bits ~n payload;
                        payload;
                        dropped = false;
                        queue_dropped = false;
                        link_dropped = false;
                        ecn = false;
                      }
                      :: !out
              in
              let send =
                {
                  Protocol.fresh = emit Protocol.Fresh_port;
                  port = (fun p -> emit (Protocol.Port p));
                  node = (fun d -> emit (Protocol.Node d));
                }
              in
              states.(i) <-
                P.step ctxs.(i) states.(i) ~round:r ~inbox:(Protocol.Inbox.of_list inbox) ~send;
              List.rev !out
            end)
      in
      let sends = List.concat (Array.to_list by_node) in
      (* 2. CONGEST. *)
      Option.iter
        (fun limit ->
          let edge = Hashtbl.create 16 in
          List.iter
            (fun s ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt edge (s.src, s.dst)) in
              if prev <= limit && prev + s.bits > limit then Metrics.record_violation metrics;
              Hashtbl.replace edge (s.src, s.dst) (prev + s.bits))
            sends)
        config.congest_limit;
      (* 3. Crashes. *)
      let observations = Array.map P.observe states in
      let alive_faulty =
        List.filter_map
          (fun i ->
            if faulty.(i) && not crashed.(i) then
              Some
                {
                  Adversary.node = i;
                  observation = observations.(i);
                  pending =
                    List.map (fun s -> { Adversary.dst = s.dst; bits = s.bits }) by_node.(i);
                }
            else None)
          (List.init n Fun.id)
      in
      let view = { Adversary.round = r; n; alive_faulty; all_observations = observations } in
      List.iter
        (fun (v, rule) ->
          if v < 0 || v >= n then violation (Violation.Crash_out_of_range { round = r; node = v })
          else if not faulty.(v) then violation (Violation.Crash_non_faulty { round = r; node = v })
          else if crashed.(v) then violation (Violation.Crash_duplicate { round = r; node = v })
          else begin
            crashed.(v) <- true;
            crash_round.(v) <- r;
            trace_add (Trace.Crash { round = r; node = v });
            List.iteri
              (fun k s ->
                match rule with
                | Adversary.Drop_all -> s.dropped <- true
                | Adversary.Drop_none -> ()
                | Adversary.Drop_random p ->
                    if Ftc_rng.Dist.bernoulli adv_rng p then s.dropped <- true
                | Adversary.Keep_prefix kp -> if k >= kp then s.dropped <- true)
              by_node.(v)
          end)
        (config.adversary.Adversary.decide_crashes adv_rng view);
      (* 4. Queues, then links. *)
      Option.iter
        (fun q ->
          let depth = Array.make n 0 in
          List.iter
            (fun s ->
              if not s.dropped then
                match Queue_model.decide q queue_rng ~occupancy:depth.(s.dst) with
                | Queue_model.Accept -> depth.(s.dst) <- depth.(s.dst) + 1
                | Queue_model.Mark ->
                    s.ecn <- true;
                    depth.(s.dst) <- depth.(s.dst) + 1
                | Queue_model.Drop -> s.queue_dropped <- true)
            sends;
          let peak = Array.fold_left max 0 depth in
          if peak > 0 then Metrics.record_queue_depth metrics ~round:r ~depth:peak)
        config.queue;
      List.iter
        (fun s ->
          if config.link != Link.reliable && not (s.dropped || s.queue_dropped) then
            let view =
              { Link.round = r; src = s.src; dst = s.dst; bits = s.bits; observations }
            in
            if config.link.Link.drop link_rng view then s.link_dropped <- true)
        sends;
      (* 5. Count, trace, deliver. *)
      List.iter
        (fun s ->
          let send delivered =
            trace_add
              (Trace.Send { round = r; src = s.src; dst = s.dst; bits = s.bits; delivered })
          in
          if s.queue_dropped then begin
            Metrics.record_queue_drop metrics ~round:r ~bits:s.bits;
            send false;
            trace_add (Trace.Queue_dropped { round = r; src = s.src; dst = s.dst; bits = s.bits })
          end
          else if s.link_dropped then begin
            Metrics.record_link_loss metrics ~round:r ~bits:s.bits;
            send false;
            trace_add (Trace.Link_lost { round = r; src = s.src; dst = s.dst; bits = s.bits })
          end
          else begin
            let delivered = not s.dropped in
            Metrics.record_send metrics ~round:r ~bits:s.bits ~delivered;
            send delivered;
            if delivered then begin
              let from_port = Ports.port_to ports.(s.dst) s.src in
              if s.ecn then begin
                Metrics.record_ecn_mark metrics ~round:r;
                trace_add (Trace.Ecn_marked { round = r; src = s.src; dst = s.dst })
              end;
              inboxes.(s.dst) <-
                { Protocol.from_port; payload = s.payload; ecn = s.ecn } :: inboxes.(s.dst)
            end
          end)
        sends;
      Array.iteri (fun i inbox -> inboxes.(i) <- List.rev inbox) inboxes;
      (* 6. Early stop: quiescent, and every live node has decided. *)
      in_flight := sends <> [];
      if
        sends = []
        && Array.for_all Fun.id
             (Array.mapi (fun i st -> crashed.(i) || P.decide st <> Decision.Undecided) states)
      then finished := true;
      incr round
    done;
    Metrics.finish metrics ~rounds:!round;
    {
      Engine.decisions = Array.map P.decide states;
      observations = Array.map P.observe states;
      faulty;
      crashed;
      crash_round;
      rounds_used = !round;
      timed_out = (not !finished) && !in_flight && not !watchdog_expired;
      watchdog_expired = !watchdog_expired;
      metrics;
      trace;
      violations = List.rev !violations;
      round_ns = [||];
    }
end
