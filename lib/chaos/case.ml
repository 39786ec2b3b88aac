module Engine = Ftc_sim.Engine
module Adversary = Ftc_sim.Adversary
module Strategy = Ftc_fault.Strategy
module Omission = Ftc_fault.Omission
module Transport = Ftc_transport.Transport
module Runner = Ftc_expt.Runner

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

let of_seed ?(loss = Omission.No_loss) ?queue ?(transport = false) ~protocol ~n ~alpha
    ~adversary seed =
  let inputs =
    match Catalog.find protocol with
    | Some entry when n >= 0 -> Catalog.gen_inputs entry ~n ~seed
    | _ -> [||]
  in
  { protocol; n; alpha; seed; inputs; plan = []; adversary; loss; queue; transport }

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
  | Some entry -> (
      let invalid msg = Error (Invalid_case msg) in
      match Engine.validate_model ~n:case.n ~alpha:case.alpha with
      | Error msg -> invalid msg
      | Ok () when Array.length case.inputs <> case.n ->
          invalid
            (Printf.sprintf "inputs length %d <> n = %d" (Array.length case.inputs) case.n)
      | Ok () -> (
          match (Omission.validate case.loss, queue_error case, case.adversary) with
          | Error msg, _, _ | Ok (), Some msg, _ -> invalid msg
          | Ok (), None, Some name when case.plan <> [] ->
              invalid
                (Printf.sprintf "adversary %s and an explicit crash plan are mutually exclusive"
                   name)
          | Ok (), None, Some name when not (List.mem_assoc name (Strategy.all ())) ->
              invalid
                (Printf.sprintf "unknown adversary %s (known: %s)" name
                   (String.concat ", " (List.map fst (Strategy.all ()))))
          | Ok (), None, _ -> (
              let (module P : Ftc_sim.Protocol.S) = materialize entry case in
              let f = Engine.max_faulty ~n:case.n ~alpha:case.alpha in
              let max_round = P.max_rounds ~n:case.n ~alpha:case.alpha - 1 in
              match Strategy.validate_plan ~n:case.n ~f ~max_round case.plan with
              | Error msg -> invalid msg
              | Ok () -> Ok entry)))

(* The case as a runner spec. The engine run itself — config, transport
   wrapper, port choice, watchdog, telemetry — is {!Runner.run}'s. *)
let spec_of (entry : Catalog.entry) case =
  {
    (Runner.default_spec (entry.make ()) ~n:case.n ~alpha:case.alpha) with
    Runner.inputs = Runner.Exact case.inputs;
    adversary =
      (match case.adversary with
      | Some name -> List.assoc name (Strategy.all ())
      | None -> if case.plan = [] then Strategy.none else Strategy.scheduled case.plan);
    link = (fun () -> Omission.to_link case.loss);
    queue = case.queue;
    transport = (if case.transport then Some Transport.default_config else None);
    trace = Ftc_sim.Trace.Tally;
    fast_protocol = Option.map (fun mk -> mk ()) entry.fast;
  }

let run ?watchdog ?recorder case =
  match validate case with
  | Error _ as e -> e
  | Ok entry ->
      (* A droppy queue downgrades raw runs the same way injected loss
         does: delivery-dependent oracles cannot be expected to hold.
         ECN queues never lose messages, so they downgrade nothing. *)
      let queue_can_drop =
        match case.queue with Some q -> Ftc_sim.Queue_model.can_drop q | None -> false
      in
      let lossy_raw =
        (case.loss <> Omission.No_loss || queue_can_drop) && not case.transport
      in
      let judge (o : Runner.outcome) =
        let findings = Oracle.check ~lossy_raw entry ~inputs:case.inputs o.result in
        (findings, findings = [])
      in
      let o, findings =
        Runner.run_judged ?watchdog ?recorder (spec_of entry case) ~seed:case.seed ~judge
      in
      Ok (o.result, findings)

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
