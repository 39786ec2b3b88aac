module Protocol = Ftc_sim.Protocol
module Congest = Ftc_sim.Congest

type config = { timeout : int; backoff_cap : int; budget : int }

let default_config = { timeout = 2; backoff_cap = 8; budget = 4 }

let validate_config c =
  if c.timeout < 2 then Error (Printf.sprintf "timeout %d below the 2-round ack RTT" c.timeout)
  else if c.backoff_cap < c.timeout then
    Error (Printf.sprintf "backoff cap %d below timeout %d" c.backoff_cap c.timeout)
  else if c.budget < 0 then Error (Printf.sprintf "negative retransmission budget %d" c.budget)
  else begin
    (* The calendar doubles timeouts from [timeout] up to [backoff_cap];
       a cap off the doubling ladder would silently bind one step early.
       Reject it instead of rounding. *)
    let rec on_ladder t = t = c.backoff_cap || (t < c.backoff_cap && on_ladder (2 * t)) in
    if not (on_ladder c.timeout) then
      Error
        (Printf.sprintf
           "backoff cap %d is not a power-of-two multiple of timeout %d (the doubling \
            calendar would skip it)"
           c.backoff_cap c.timeout)
    else Ok ()
  end

(* Offset of transmission i (0-based) within the window: doubling timeouts
   capped at [backoff_cap]. The window is sized so the last permitted
   transmission still arrives before the next inner round is delivered. *)
let window c =
  let off = ref 0 and t = ref c.timeout in
  for _ = 1 to c.budget do
    off := !off + !t;
    t := min c.backoff_cap (2 * !t)
  done;
  !off + 2

let nth_timeout c k =
  let t = ref c.timeout in
  for _ = 1 to max 0 k do
    t := min c.backoff_cap (2 * !t)
  done;
  !t

type stats = {
  mutable data_sent : int;
  mutable retransmissions : int;
  mutable acks_sent : int;
  mutable acked : int;
  mutable delivered_unique : int;
  mutable duplicates : int;
  mutable gave_up : int;
  mutable unroutable : int;
  mutable ecn_backoffs : int;
  mutable congestion_drops : int;
  mutable max_timeout : int;
}

let fresh_stats () =
  {
    data_sent = 0;
    retransmissions = 0;
    acks_sent = 0;
    acked = 0;
    delivered_unique = 0;
    duplicates = 0;
    gave_up = 0;
    unroutable = 0;
    ecn_backoffs = 0;
    congestion_drops = 0;
    max_timeout = 0;
  }

(* One line, every field, declaration order — golden-tested so F13/F14
   logs stay machine-greppable across versions. *)
let pp_stats ppf s =
  Format.fprintf ppf
    "data=%d retx=%d acks=%d acked=%d delivered=%d dups=%d gave_up=%d unroutable=%d \
     ecn_backoffs=%d congestion_drops=%d max_timeout=%d"
    s.data_sent s.retransmissions s.acks_sent s.acked s.delivered_unique s.duplicates s.gave_up
    s.unroutable s.ecn_backoffs s.congestion_drops s.max_timeout

(* Sequence numbers ride in every data message and ack; 2 log n bits is
   room for n^2 messages per sender, far beyond the Õ(√n) protocols. *)
let seq_bits ~n = 2 * Congest.id_bits ~n

module Make
    (C : sig
      val config : config
      val stats : stats
    end)
    (P : Protocol.S) : Protocol.S = struct
  let w = window C.config
  let cfg = C.config
  let stats = C.stats

  type msg = Data of { seq : int; payload : P.msg } | Ack of int

  type pending = {
    seq : int;
    retx_dest : Protocol.dest;  (* always Port/Node: re-sends reuse the opened port *)
    payload : P.msg;
    window_end : int;
    mutable next_at : int;
    mutable timeout : int;
    mutable sent : int;  (* transmissions so far, first included *)
    mutable ack_deadline : int;  (* last round an ack for this can still arrive *)
    mutable congested : bool;  (* calendar widened after repeated losses *)
  }

  type state = {
    mutable inner : P.state;
    mutable next_seq : int;
    mutable next_port : int;  (* mirror of the engine's per-node port count *)
    mutable pending : pending list;
    mutable buffer : P.msg Protocol.incoming list;  (* reversed arrival order *)
    seen : (int * int, unit) Hashtbl.t;  (* (from_port, seq) already delivered *)
    mutable congestion : int;  (* ECN backoff exponent, 0..3 *)
    mutable signal_seen : bool;  (* an ECN mark arrived since the last window boundary *)
  }

  let name = P.name ^ "+transport"
  let knowledge = P.knowledge

  let msg_bits ~n = function
    | Data { payload; _ } -> P.msg_bits ~n payload + seq_bits ~n
    | Ack _ -> Congest.tag_bits + seq_bits ~n

  let max_rounds ~n ~alpha = (w * P.max_rounds ~n ~alpha) + 2

  (* Inner round r occupies outer rounds [w*r, w*(r+1)), so the wrapped
     protocol's phase calendar carries over scaled by the window. *)
  let phases ~n ~alpha = List.map (fun (nm, r) -> (nm, w * r)) (P.phases ~n ~alpha)

  let init ctx =
    {
      inner = P.init ctx;
      next_seq = 0;
      next_port = 0;
      pending = [];
      buffer = [];
      seen = Hashtbl.create 64;
      congestion = 0;
      signal_seen = false;
    }

  let record_timeout t = if t > stats.max_timeout then stats.max_timeout <- t

  (* The maximum ECN backoff: timeouts shifted by 3 (x8) still fit a few
     transmissions into the default 24-round window. *)
  let max_congestion = 3

  let step ctx st ~round ~inbox ~(send : msg Protocol.send) =
    (* 1. Ingest: acks settle pending sends; data is acked, deduplicated,
       and buffered for the next inner round. Receiver-side port openings
       show up here as fresh [from_port] values, keeping the port mirror
       in sync with the engine. *)
    let marked = ref false in
    for k = 0 to Protocol.Inbox.length inbox - 1 do
      let from_port = Protocol.Inbox.port inbox k and ecn = Protocol.Inbox.ecn inbox k in
      if from_port >= st.next_port then st.next_port <- from_port + 1;
      if ecn then marked := true;
      match Protocol.Inbox.payload inbox k with
      | Ack seq ->
          let confirmed, rest = List.partition (fun p -> p.seq = seq) st.pending in
          if confirmed <> [] then begin
            stats.acked <- stats.acked + 1;
            st.pending <- rest
          end
      | Data { seq; payload } ->
          send.port from_port (Ack seq);
          stats.acks_sent <- stats.acks_sent + 1;
          if Hashtbl.mem st.seen (from_port, seq) then stats.duplicates <- stats.duplicates + 1
          else begin
            Hashtbl.replace st.seen (from_port, seq) ();
            stats.delivered_unique <- stats.delivered_unique + 1;
            st.buffer <- { Protocol.from_port; payload; ecn } :: st.buffer
          end
    done;
    (* ECN reaction: any congestion mark this step escalates the node's
       backoff exponent one level (at most one level per step), widening
       every timeout below — the multiplicative backoff beyond the
       loss-driven doubling. The mark also arms [signal_seen] so the
       exponent holds through the next window boundary. *)
    if !marked then begin
      st.signal_seen <- true;
      if st.congestion < max_congestion then begin
        st.congestion <- st.congestion + 1;
        stats.ecn_backoffs <- stats.ecn_backoffs + 1
      end
    end;
    (* 2. Window boundary: deliver the buffered data as the inner round's
       inbox, and ship the inner protocol's sends with fresh sequence
       numbers. First transmissions keep the inner destination (a
       [Fresh_port] must really open the port); retransmissions go through
       the port the mirror says that send opened. *)
    if round mod w = 0 then begin
      (* A window with no congestion signal decays the ECN exponent one
         level (AIMD-style recovery); one with a signal just re-arms. *)
      if st.signal_seen then st.signal_seen <- false
      else if st.congestion > 0 then st.congestion <- st.congestion - 1;
      let inner_inbox = Protocol.Inbox.of_list (List.rev st.buffer) in
      st.buffer <- [];
      let data dest payload =
        let retx_dest =
          match dest with
          | Protocol.Port _ | Protocol.Node _ -> Some dest
          | Protocol.Fresh_port ->
              if st.next_port >= ctx.Protocol.n - 1 then None
              else begin
                let port = st.next_port in
                st.next_port <- port + 1;
                Some (Protocol.Port port)
              end
        in
        match retx_dest with
        | None ->
            (* The engine will count this send as unroutable; there is
               no port to retransmit through, so nothing to track. *)
            stats.unroutable <- stats.unroutable + 1;
            Protocol.send_to send dest (Data { seq = st.next_seq; payload });
            st.next_seq <- st.next_seq + 1
        | Some retx_dest ->
            let seq = st.next_seq in
            st.next_seq <- seq + 1;
            stats.data_sent <- stats.data_sent + 1;
            let eff = cfg.timeout lsl st.congestion in
            record_timeout eff;
            Protocol.send_to send dest (Data { seq; payload });
            st.pending <-
              {
                seq;
                retx_dest;
                payload;
                window_end = round + w;
                next_at = min (round + eff) (round + w);
                timeout = cfg.timeout;
                sent = 1;
                ack_deadline = round + 2;
                congested = false;
              }
              :: st.pending
      in
      let inner_send =
        {
          Protocol.fresh = (fun m -> data Protocol.Fresh_port m);
          port = (fun p m -> data (Protocol.Port p) m);
          node = (fun d m -> data (Protocol.Node d) m);
        }
      in
      st.inner <- P.step ctx st.inner ~round:(round / w) ~inbox:inner_inbox ~send:inner_send
    end;
    (* 3. Retransmission calendar: resend every overdue unacked message
       while budget and window allow; drop it for good once neither its
       retransmissions nor their acks can still land. *)
    let still_pending =
      List.filter
        (fun p ->
          if round < p.next_at then true
          else if p.sent <= cfg.budget && round < p.window_end then begin
            Protocol.send_to send p.retx_dest (Data { seq = p.seq; payload = p.payload });
            stats.retransmissions <- stats.retransmissions + 1;
            p.sent <- p.sent + 1;
            p.ack_deadline <- round + 2;
            (* Two unacked transmissions suggest a queue is eating them,
               not random loss: widen this message's calendar past the
               plain doubling (quadruple, cap lifted 4x) so later copies
               stop re-filling the queue that dropped the earlier ones. *)
            if p.sent >= 3 && not p.congested then begin
              p.congested <- true;
              stats.congestion_drops <- stats.congestion_drops + 1
            end;
            let growth, cap =
              if p.congested then (4, 4 * cfg.backoff_cap) else (2, cfg.backoff_cap)
            in
            p.timeout <- min cap (growth * p.timeout);
            let eff = p.timeout lsl st.congestion in
            record_timeout eff;
            (* Clamp to the window so the give-up check still reaches the
               entry before the run ends. *)
            p.next_at <- min (round + eff) p.window_end;
            true
          end
          else if round >= p.ack_deadline then begin
            stats.gave_up <- stats.gave_up + 1;
            false
          end
          else true)
        st.pending
    in
    st.pending <- still_pending;
    st

  let idle = Protocol.never_idle
  let decide st = P.decide st.inner
  let observe st = P.observe st.inner
end

let wrap ?(config = default_config) (module P : Protocol.S) =
  (match validate_config config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Transport.wrap: " ^ e));
  let stats = fresh_stats () in
  let module W =
    Make
      (struct
        let config = config
        let stats = stats
      end)
      (P)
  in
  ((module W : Protocol.S), stats)
