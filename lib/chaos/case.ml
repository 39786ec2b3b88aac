module Engine = Ftc_sim.Engine
module Adversary = Ftc_sim.Adversary
module Strategy = Ftc_fault.Strategy
module Omission = Ftc_fault.Omission
module Transport = Ftc_transport.Transport

type t = {
  protocol : string;
  n : int;
  alpha : float;
  seed : int;
  inputs : int array;
  plan : (int * int * Adversary.drop_rule) list;
  adversary : string option;
  loss : Omission.spec;
  queue : Ftc_sim.Queue_model.config option;
  transport : bool;
}

let equal a b =
  a.protocol = b.protocol && a.n = b.n && a.alpha = b.alpha && a.seed = b.seed
  && a.inputs = b.inputs && a.plan = b.plan && a.adversary = b.adversary && a.loss = b.loss
  && a.queue = b.queue && a.transport = b.transport

type error = Unknown_protocol of string | Invalid_case of string

let error_to_string = function
  | Unknown_protocol p ->
      Printf.sprintf "unknown protocol %s (known: %s)" p
        (String.concat ", " (Catalog.names ()))
  | Invalid_case msg -> "invalid case: " ^ msg

(* The module a case actually executes: the catalog entry, wrapped in the
   reliable transport when the case asks for it. *)
let materialize (entry : Catalog.entry) case =
  if case.transport then fst (Transport.wrap (entry.make ())) else entry.make ()

let queue_error case =
  match case.queue with
  | None -> None
  | Some q -> (
      match Ftc_sim.Queue_model.validate q with Ok () -> None | Error msg -> Some msg)

let validate case =
  match Catalog.find case.protocol with
  | None -> Error (Unknown_protocol case.protocol)
  | Some entry ->
      if case.n < 2 then Error (Invalid_case "n must be at least 2")
      else if case.alpha <= 0. || case.alpha > 1. then
        Error (Invalid_case "alpha must be in (0, 1]")
      else if Array.length case.inputs <> case.n then
        Error
          (Invalid_case
             (Printf.sprintf "inputs length %d <> n = %d" (Array.length case.inputs) case.n))
      else begin
        match Omission.validate case.loss with
        | Error msg -> Error (Invalid_case msg)
        | Ok () when Option.is_some (queue_error case) ->
            Error (Invalid_case (Option.get (queue_error case)))
        | Ok () -> (
            match case.adversary with
            | Some name when case.plan <> [] ->
                Error
                  (Invalid_case
                     (Printf.sprintf
                        "adversary %s and an explicit crash plan are mutually exclusive" name))
            | Some name when not (List.mem_assoc name (Strategy.all ())) ->
                Error
                  (Invalid_case
                     (Printf.sprintf "unknown adversary %s (known: %s)" name
                        (String.concat ", " (List.map fst (Strategy.all ())))))
            | _ ->
                let (module P : Ftc_sim.Protocol.S) = materialize entry case in
                let f = Engine.max_faulty ~n:case.n ~alpha:case.alpha in
                let max_round = P.max_rounds ~n:case.n ~alpha:case.alpha - 1 in
                (match Strategy.validate_plan ~n:case.n ~f ~max_round case.plan with
                | Error msg -> Error (Invalid_case msg)
                | Ok () -> Ok entry))
      end

let run ?watchdog ?(recorder = Ftc_telemetry.Recorder.disabled) case =
  match validate case with
  | Error _ as e -> e
  | Ok entry ->
      let (module P : Ftc_sim.Protocol.S) = materialize entry case in
      (* The catalog's codec port where one exists and the protocol is
         not transport-wrapped (the wrapper transforms a Protocol.S);
         the generic adapter otherwise. Same results either way, by the
         differential suite's contract. *)
      let run_engine =
        match entry.Catalog.fast with
        | Some mk when not case.transport ->
            let module E = Engine.Make_codec ((val mk () : Ftc_sim.Fast_protocol.S)) in
            E.run
        | Some _ | None ->
            let module E = Engine.Make (P) in
            E.run
      in
      let adversary =
        match case.adversary with
        | Some name -> (List.assoc name (Strategy.all ())) ()
        | None ->
            if case.plan = [] then Adversary.none else Strategy.scheduled case.plan ()
      in
      (* Wrapped runs get double the per-edge budget: transport framing
         lets a data message and an ack share an edge-round. *)
      let congest_factor = if case.transport then 2 else 1 in
      let telemetry_on = Ftc_telemetry.Recorder.enabled recorder in
      let start_ns = Ftc_telemetry.Recorder.now_ns recorder in
      let result =
        run_engine
          {
            Engine.n = case.n;
            alpha = case.alpha;
            seed = case.seed;
            inputs = Some case.inputs;
            adversary;
            link = Omission.to_link case.loss;
            queue = case.queue;
            congest_limit = Some (congest_factor * Ftc_sim.Congest.default_limit ~n:case.n);
            record_trace = true;
            max_rounds_override = None;
            watchdog;
            round_clock =
              (if telemetry_on then Some (fun () -> Ftc_telemetry.Recorder.now_ns recorder)
               else None);
          }
      in
      (* A droppy queue downgrades raw runs the same way injected loss
         does: delivery-dependent oracles cannot be expected to hold.
         ECN queues never lose messages, so they downgrade nothing. *)
      let queue_can_drop =
        match case.queue with Some q -> Ftc_sim.Queue_model.can_drop q | None -> false
      in
      let lossy_raw =
        (case.loss <> Omission.No_loss || queue_can_drop) && not case.transport
      in
      let findings = Oracle.check ~lossy_raw entry ~inputs:case.inputs result in
      if telemetry_on then begin
        let m = result.Engine.metrics in
        Ftc_telemetry.Instrument.record_run recorder ~protocol:P.name ~seed:case.seed
          ~ok:(findings = [])
          ~phases:(P.phases ~n:case.n ~alpha:case.alpha)
          ~rounds_used:result.Engine.rounds_used
          ~per_round_msgs:m.Ftc_sim.Metrics.per_round_msgs
          ~per_round_bits:m.Ftc_sim.Metrics.per_round_bits
          ~msgs:m.Ftc_sim.Metrics.msgs_sent ~bits:m.Ftc_sim.Metrics.bits_sent
          ~dropped:m.Ftc_sim.Metrics.msgs_dropped
          ~lost_link:m.Ftc_sim.Metrics.msgs_lost_link
          ~queue_dropped:m.Ftc_sim.Metrics.msgs_dropped_queue
          ~ecn_marked:m.Ftc_sim.Metrics.msgs_ecn_marked
          ~per_round_queue_peak:m.Ftc_sim.Metrics.per_round_queue_peak
          ~unroutable:m.Ftc_sim.Metrics.msgs_unroutable ~round_ns:result.Engine.round_ns
          ~start_ns
      end;
      Ok (result, findings)

let findings case = match run case with Error _ -> [] | Ok (_, fs) -> fs

let rule_to_string = function
  | Adversary.Drop_all -> "drop-all"
  | Adversary.Drop_none -> "drop-none"
  | Adversary.Drop_random p -> Printf.sprintf "drop-random %.17g" p
  | Adversary.Keep_prefix k -> Printf.sprintf "keep-prefix %d" k

let pp ppf case =
  Format.fprintf ppf "%s n=%d alpha=%g seed=%d plan=[%s]%s loss=%s%s transport=%b"
    case.protocol case.n case.alpha case.seed
    (String.concat "; "
       (List.map
          (fun (v, r, rule) -> Printf.sprintf "%d@r%d %s" v r (rule_to_string rule))
          case.plan))
    (match case.adversary with None -> "" | Some a -> " adversary=" ^ a)
    (Omission.spec_to_string case.loss)
    (match case.queue with
    | None -> ""
    | Some q -> " queue=" ^ Ftc_sim.Queue_model.to_string q)
    case.transport
