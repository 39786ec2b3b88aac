type env = {
  loss : Ftc_fault.Omission.spec;
  queue : Ftc_sim.Queue_model.config option;
  transport : bool;
}

let pure_env = { loss = Ftc_fault.Omission.No_loss; queue = None; transport = false }

(* The chaos catalog's fixed grid points (fuzzer loss axes + the F14
   queue axis), as pure grid coordinates rather than random draws. *)
let grid_envs =
  [
    {
      loss = Ftc_fault.Omission.No_loss;
      queue =
        Some (Ftc_sim.Queue_model.make ~capacity:2 ~discipline:Ftc_sim.Queue_model.Ecn ());
      transport = false;
    };
    {
      loss = Ftc_fault.Omission.No_loss;
      queue =
        Some
          (Ftc_sim.Queue_model.make ~capacity:2 ~discipline:Ftc_sim.Queue_model.Drop_tail ());
      transport = false;
    };
    { loss = Ftc_fault.Omission.Uniform 0.25; queue = None; transport = false };
    { loss = Ftc_fault.Omission.Uniform 0.05; queue = None; transport = true };
  ]

let env_to_string e =
  Printf.sprintf "loss=%s queue=%s transport=%s"
    (Ftc_fault.Omission.spec_to_string e.loss)
    (match e.queue with
    | None -> "none"
    | Some q -> Ftc_sim.Queue_model.to_string q)
    (if e.transport then "on" else "off")

type label = { input : int; crash : (int * int) option }
type state = { env : int; labels : label array }

type t = {
  entry : Ftc_chaos.Catalog.entry;
  protocol : string;
  n : int;
  alpha : float;
  f : int;
  horizon : int;
  rules : Ftc_sim.Adversary.drop_rule array;
  envs : env array;
  inputs : int array;
  fixed_inputs : int array option;
}

let ( let* ) = Result.bind

let make ?(keep_prefix_max = 2) ?(grid = false) ?(horizon = 0) ?fixed_inputs ~protocol ~n
    ~alpha () =
  let* entry =
    match Ftc_chaos.Catalog.find protocol with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown protocol %S" protocol)
  in
  let* () =
    Result.map_error
      (fun e -> Printf.sprintf "%s (got n=%d, alpha=%g)" e n alpha)
      (Ftc_sim.Engine.validate_model ~n ~alpha)
  in
  let* () = if n > 8 then Error (Printf.sprintf "n must be at most 8 (got %d)" n) else Ok () in
  let* () =
    if keep_prefix_max < 0 || keep_prefix_max > n then
      Error (Printf.sprintf "keep-prefix-max must be in [0, n] (got %d)" keep_prefix_max)
    else Ok ()
  in
  let (module P : Ftc_sim.Protocol.S) = entry.make () in
  let calendar = P.max_rounds ~n ~alpha in
  let* horizon =
    if horizon = 0 then Ok calendar
    else if horizon < 0 || horizon > calendar then
      Error
        (Printf.sprintf "horizon must be in [1, %d] for %s at n=%d (got %d)" calendar
           protocol n horizon)
    else Ok horizon
  in
  let inputs =
    match entry.inputs with
    | Ftc_chaos.Catalog.No_inputs -> [| 0 |]
    | Ftc_chaos.Catalog.Bits | Ftc_chaos.Catalog.Values _ ->
        (* [Values b] is verified over {0, 1}: exhausting [0, b]^n is
           hopeless and the interesting splits are already binary. *)
        [| 0; 1 |]
  in
  let* fixed_inputs =
    match fixed_inputs with
    | None -> Ok None
    | Some xs ->
        if Array.length xs <> n then
          Error (Printf.sprintf "fixed inputs must have length n=%d" n)
        else if Array.exists (fun x -> not (Array.mem x inputs)) xs then
          Error "fixed inputs outside the protocol's input domain"
        else begin
          let sorted = Array.copy xs in
          Array.sort compare sorted;
          Ok (Some sorted)
        end
  in
  let rules =
    Array.of_list
      (Ftc_sim.Adversary.Drop_none
      :: (List.init keep_prefix_max (fun k -> Ftc_sim.Adversary.Keep_prefix (k + 1))
         @ [ Ftc_sim.Adversary.Drop_all ]))
  in
  let envs = Array.of_list (pure_env :: (if grid then grid_envs else [])) in
  Ok
    {
      entry;
      protocol;
      n;
      alpha;
      f = Ftc_sim.Engine.max_faulty ~n ~alpha;
      horizon;
      rules;
      envs;
      inputs;
      fixed_inputs;
    }

let label_compare a b =
  match (a.crash, b.crash) with
  | None, None -> compare a.input b.input
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some (ra, ka), Some (rb, kb) -> compare (ra, ka, a.input) (rb, kb, b.input)

let canonicalize s =
  let labels = Array.copy s.labels in
  Array.sort label_compare labels;
  { s with labels }

let rec factorial k = if k <= 1 then 1 else k * factorial (k - 1)

let orbit_size t s =
  let sorted = (canonicalize s).labels in
  let denom = ref 1 and run = ref 1 in
  for i = 1 to t.n - 1 do
    if label_compare sorted.(i - 1) sorted.(i) = 0 then incr run
    else begin
      denom := !denom * factorial !run;
      run := 1
    end
  done;
  denom := !denom * factorial !run;
  factorial t.n / !denom

(* --- enumeration ------------------------------------------------------ *)

(* Non-decreasing index sequences of length [k] over [lo, m), in
   lexicographic order. *)
let rec multisets ~m k lo : int list Seq.t =
  if k = 0 then Seq.return []
  else
    Seq.concat_map
      (fun i -> Seq.map (fun rest -> i :: rest) (multisets ~m (k - 1) i))
      (Seq.init (max 0 (m - lo)) (fun d -> lo + d))

(* Crash labels are flattened round-major, then rule, then input, so the
   multiset order is the BFS severity order. *)
let crash_label_count t = t.horizon * Array.length t.rules * Array.length t.inputs

let crash_label t idx =
  let ni = Array.length t.inputs and nr = Array.length t.rules in
  let input = t.inputs.(idx mod ni) in
  let k = idx / ni mod nr in
  let r = idx / (ni * nr) in
  { input; crash = Some (r, k) }

let input_multiset_matches t labels =
  match t.fixed_inputs with
  | None -> true
  | Some want ->
      let got = Array.map (fun l -> l.input) labels in
      Array.sort compare got;
      got = want

let states t : state Seq.t =
  let ni = Array.length t.inputs in
  Seq.concat_map
    (fun env ->
      Seq.concat_map
        (fun c ->
          Seq.concat_map
            (fun crash_idxs ->
              Seq.filter_map
                (fun input_idxs ->
                  let live =
                    List.map (fun i -> { input = t.inputs.(i); crash = None }) input_idxs
                  in
                  let crashed = List.map (crash_label t) crash_idxs in
                  let labels = Array.of_list (live @ crashed) in
                  if input_multiset_matches t labels then Some { env; labels } else None)
                (multisets ~m:ni (t.n - c) 0))
            (multisets ~m:(crash_label_count t) c 0))
          (Seq.init (t.f + 1) Fun.id))
    (Seq.init (Array.length t.envs) Fun.id)

let all_states t : state Seq.t =
  (* Per-node label index: 0 .. ni-1 are live inputs, then crash labels. *)
  let ni = Array.length t.inputs in
  let total = ni + crash_label_count t in
  let label_of i = if i < ni then { input = t.inputs.(i); crash = None } else crash_label t (i - ni) in
  let rec vectors k : int list Seq.t =
    if k = 0 then Seq.return []
    else
      Seq.concat_map
        (fun i -> Seq.map (fun rest -> i :: rest) (vectors (k - 1)))
        (Seq.init total Fun.id)
  in
  Seq.concat_map
    (fun env ->
      Seq.filter_map
        (fun idxs ->
          let labels = Array.of_list (List.map label_of idxs) in
          let crashes =
            Array.fold_left (fun acc l -> if l.crash = None then acc else acc + 1) 0 labels
          in
          if crashes <= t.f && input_multiset_matches t labels then Some { env; labels }
          else None)
        (vectors t.n))
    (Seq.init (Array.length t.envs) Fun.id)

(* --- counting --------------------------------------------------------- *)

type counts = { canonical : int; schedules : int }

let binom m k =
  if k < 0 || k > m then 0
  else begin
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (m - k + i) / i
    done;
    !acc
  end

(* Multisets of size k from an alphabet of m symbols. *)
let multichoose m k = binom (m + k - 1) k

let rec power b e = if e = 0 then 1 else b * power b (e - 1)

let count t =
  match t.fixed_inputs with
  | Some _ ->
      Seq.fold_left
        (fun acc s ->
          { canonical = acc.canonical + 1; schedules = acc.schedules + orbit_size t s })
        { canonical = 0; schedules = 0 }
        (states t)
  | None ->
      let ni = Array.length t.inputs in
      let l = crash_label_count t in
      let canonical = ref 0 and schedules = ref 0 in
      for c = 0 to t.f do
        canonical := !canonical + (multichoose ni (t.n - c) * multichoose l c);
        schedules := !schedules + (binom t.n c * power l c * power ni (t.n - c))
      done;
      let e = Array.length t.envs in
      { canonical = e * !canonical; schedules = e * !schedules }

(* --- materialisation -------------------------------------------------- *)

let label_to_string t l =
  match l.crash with
  | None -> string_of_int l.input
  | Some (r, k) ->
      Printf.sprintf "%d!%d:%s" l.input r (Ftc_chaos.Case.rule_to_string t.rules.(k))

let encode t s =
  Printf.sprintf "%s n=%d env=%d:%s [%s]" t.protocol t.n s.env
    (env_to_string t.envs.(s.env))
    (String.concat " " (Array.to_list (Array.map (label_to_string t) s.labels)))

let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime) s;
  !h

let derive_seed t ~base_seed ~seed_index s =
  let key = encode t (canonicalize s) ^ "#" ^ string_of_int seed_index in
  (Int64.to_int (fnv64 key) lxor base_seed) land max_int

let to_case t ~base_seed ~seed_index s =
  let inputs = Array.map (fun l -> l.input) s.labels in
  let plan =
    Array.to_list s.labels
    |> List.mapi (fun v l -> Option.map (fun (r, k) -> (v, r, t.rules.(k))) l.crash)
    |> List.filter_map Fun.id
  in
  let e = t.envs.(s.env) in
  {
    Ftc_chaos.Case.protocol = t.protocol;
    n = t.n;
    alpha = t.alpha;
    seed = derive_seed t ~base_seed ~seed_index s;
    inputs;
    plan;
    adversary = None;
    loss = e.loss;
    queue = e.queue;
    transport = e.transport;
  }
