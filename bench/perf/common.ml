(* What every workload shares: the clock, /proc readers, GC deltas, the
   outcome record a workload child sends back to the parent, and the
   engine runs the traced layer measurements are made of. *)

module Json = Ftc_journal.Json
module Engine = Ftc_sim.Engine
module Case = Ftc_chaos.Case
module Catalog = Ftc_chaos.Catalog
module Oracle = Ftc_chaos.Oracle
module Runner = Ftc_expt.Runner
module Strategy = Ftc_fault.Strategy
module Recorder = Ftc_telemetry.Recorder

let now_ns () = Monotonic_clock.now ()
let now_ms () = Int64.to_float (now_ns ()) /. 1e6

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

(* Every process the benchmark starts runs with the GC at its defaults:
   a caller's OCAMLRUNPARAM would change what is measured. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
  |> Array.of_list

let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  ready : unit -> unit;  (** Call once set-up and warm-up are done. *)
}

(* Timed unit [i] and warm-up unit [j] as engine seeds: a pure function
   of [--seed], disjoint between timed and warm-up units. *)
let unit_seed ctx i = (ctx.seed * 1_000_000) + i
let warm_seed ctx j = (ctx.seed * 1_000_000) + 900_000 + j

(* Whether another unit of about [last_ms] fits before the run's end. *)
let time_left ctx ~t0 ~last_ms = now_ms () +. (last_ms /. 2.) < t0 +. (ctx.seconds *. 1000.)

(* -- /proc -- *)

let proc_file pid name =
  Printf.sprintf "/proc/%s/%s" (match pid with Some p -> string_of_int p | None -> "self") name

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let text = In_channel.with_open_bin (proc_file pid "status") In_channel.input_all in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' text)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* User + system CPU seconds of a process, every thread included. The
   fields after the parenthesised command name start at field 3, so
   utime and stime (fields 14 and 15) are at offsets 11 and 12; the
   kernel reports them in USER_HZ = 100 ticks per second. *)
let cpu_s pid =
  let text = In_channel.with_open_bin (proc_file pid "stat") In_channel.input_all in
  let after = String.rindex text ')' + 2 in
  let rest = String.sub text after (String.length text - after) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.

(* -- metrics and the child's report -- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let cpu_metrics ~cpu_s ~wall_ms ~units =
  [ m "proc.cpu_util" "ratio" (cpu_s *. 1000. /. wall_ms);
    m "proc.cpu_ms_per_unit" "ms" (cpu_s *. 1000. /. float_of_int (max 1 units)) ]

(* GC work as counters: a reading, or the difference of two. *)
type gc = { minor_words : float; minor : int; major : int }

let gc_read () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; minor = s.Gc.minor_collections; major = s.Gc.major_collections }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    minor = b.minor - a.minor;
    major = b.major - a.major;
  }

let gc_zero = { minor_words = 0.; minor = 0; major = 0 }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    minor = a.minor + b.minor;
    major = a.major + b.major;
  }

(* [gc.minor_heap_words] is read when the child reports, after any
   ratchet the workload triggered. *)
let gc_metrics d ~units =
  let per x = x /. float_of_int (max 1 units) in
  [ m "gc.minor_words_per_unit" "words" (per d.minor_words);
    m "gc.minor_per_unit" "count" (per (float_of_int d.minor));
    m "gc.major_per_unit" "count" (per (float_of_int d.major));
    m "gc.minor_heap_words" "words" (float_of_int (Gc.get ()).Gc.minor_heap_size) ]

let gc_during f =
  let before = gc_read () in
  let r = f () in
  (r, gc_diff before (gc_read ()))

type outcome = {
  units : int;  (** Units attempted in the timed phase. *)
  failed : int;  (** Units that failed, went missing or computed a wrong result. *)
  notes : string list;  (** Why, one line per finding. *)
  work : float;  (** Instances, trials, node-rounds or states done in the timed phase. *)
  wall_ms : float;  (** Length of the timed phase. *)
  rss_mb : float;  (** Peak RSS of the process doing the work. *)
  unit_ms : float list;  (** Latency of each unit, in unit order. *)
  layers : metric list;  (** Traced runs only. *)
  digest : (string * int) list;  (** Over the first units of the run; [[]] if too few ran. *)
  spans : Spans.span list;
}

let metric_to_json x = Json.List [ Json.String x.name; Json.Float x.value; Json.String x.unit_ ]

let metric_of_json = function
  | Json.List [ Json.String name; v; Json.String unit_ ] ->
      Option.map (fun value -> { name; value; unit_ }) (Json.to_float v)
  | _ -> None

let outcome_to_json o =
  Json.Obj
    [ ("units", Json.Int o.units); ("failed", Json.Int o.failed);
      ("notes", Json.List (List.map (fun s -> Json.String s) o.notes));
      ("work", Json.Float o.work); ("wall_ms", Json.Float o.wall_ms);
      ("rss_mb", Json.Float o.rss_mb);
      ("unit_ms", Json.List (List.map (fun x -> Json.Float x) o.unit_ms));
      ("layers", Json.List (List.map metric_to_json o.layers));
      ("digest", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) o.digest));
      ("spans", Json.List (List.map Spans.to_json o.spans)) ]

let outcome_of_json j =
  let list k f =
    match Json.member k j with
    | Some (Json.List xs) ->
        let ys = List.filter_map f xs in
        if List.length ys = List.length xs then Some ys else None
    | _ -> None
  in
  let num k = Option.bind (Json.member k j) Json.to_float in
  match
    ( Option.bind (Json.member "units" j) Json.to_int,
      Option.bind (Json.member "failed" j) Json.to_int,
      list "notes" Json.to_str, num "work", num "wall_ms", num "rss_mb",
      list "unit_ms" Json.to_float, list "layers" metric_of_json, Json.member "digest" j,
      list "spans" Spans.of_json )
  with
  | ( Some units, Some failed, Some notes, Some work, Some wall_ms, Some rss_mb, Some unit_ms,
      Some layers, Some (Json.Obj d), Some spans ) ->
      let digest = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) (Json.to_int v)) d in
      Some { units; failed; notes; work; wall_ms; rss_mb; unit_ms; layers; digest; spans }
  | _ -> None

(* Σ msgs/bits/rounds and the ok count over the first [count] results,
   in unit order: the quantities the paper bounds, fixed by the seed. *)
let digest ~count results =
  if List.length results < count then []
  else
    let first = List.filteri (fun i _ -> i < count) results in
    let total f = List.fold_left (fun a r -> a + f r) 0 first in
    [ ("units", count); ("msgs", total (fun (msgs, _, _, _) -> msgs));
      ("bits", total (fun (_, bits, _, _) -> bits));
      ("rounds", total (fun (_, _, rounds, _) -> rounds));
      ("ok", total (fun (_, _, _, ok) -> if ok then 1 else 0)) ]

(* -- engine runs through the telemetry hooks -- *)

(* A live recorder, and the map from its timestamps onto [now_ms]. With
   a live recorder [Runner.run] arms the engine's round clock (giving
   [result.round_ns]) and [Runner.run_many_par] its pool monitor (giving
   [Job] events). *)
let live_recorder () =
  let r = Recorder.create () in
  let origin = now_ms () -. (Int64.to_float (Recorder.now_ns r) /. 1e6) in
  (r, fun ns -> origin +. (Int64.to_float ns /. 1e6))

let round_ms (res : Engine.result) =
  Array.to_list (Array.map (fun ns -> Int64.to_float ns /. 1e6) res.round_ns)

(* A chaos case without loss or transport as a [Runner] spec: the bare
   engine share of what [Case.run] does, with no trace and no oracle. *)
let spec_of_case (case : Case.t) =
  let entry = Option.get (Catalog.find case.protocol) in
  {
    (Runner.default_spec (entry.Catalog.make ()) ~n:case.n ~alpha:case.alpha) with
    Runner.inputs = Runner.Exact case.inputs;
    adversary =
      (match case.adversary with
      | Some name -> List.assoc name (Strategy.all ())
      | None -> Strategy.scheduled case.plan);
  }

let case_run case =
  match Case.run case with Ok x -> x | Error e -> failwith (Case.error_to_string e)

(* One engine run timed on one domain: the unit the engine-layer
   metrics are computed over. [res.round_ns] is filled when the run had
   a live recorder. *)
type engine_sample = { ms : float; n : int; res : Engine.result }

(* The engine-layer metrics every workload reports. *)
let engine_metrics samples =
  let node_rounds =
    sum (List.map (fun s -> float_of_int (s.n * s.res.Engine.rounds_used)) samples)
  in
  let per_unit f = mean (List.map (fun s -> float_of_int (f s.res)) samples) in
  let ms = List.map (fun s -> s.ms) samples in
  [ m "engine.run_ms_p50" "ms" (Stats.median ms);
    m "engine.round_us_p50" "us"
      (1000. *. Stats.median (List.concat_map (fun s -> round_ms s.res) samples));
    m "engine.ns_per_node_round" "ns" (1e6 *. sum ms /. node_rounds);
    m "engine.msgs_per_unit" "count"
      (per_unit (fun r -> r.Engine.metrics.Ftc_sim.Metrics.msgs_sent));
    m "engine.rounds_per_unit" "count" (per_unit (fun r -> r.Engine.rounds_used)) ]

(* One sampled instance taken apart: the full [Case.run] (trace and
   oracles), the bare engine run, and the oracle pass on its own. *)
type cost = {
  result : Engine.result;  (** From [Case.run]. *)
  findings : Oracle.finding list;
  case_ms : float;
  engine : engine_sample;  (** The same case without trace or oracles. *)
  oracle_ms : float;
  case_gc : gc;  (** During [Case.run] only. *)
}

let instance_cost (case : Case.t) =
  let entry = Option.get (Catalog.find case.protocol) in
  let ((result, findings), case_ms), case_gc =
    gc_during (fun () -> timed (fun () -> case_run case))
  in
  let recorder, _ = live_recorder () in
  let o, ms = timed (fun () -> Runner.run ~recorder (spec_of_case case) ~seed:case.seed) in
  if o.result.metrics.msgs_sent <> result.metrics.msgs_sent then
    failwith (Printf.sprintf "seed %d: the bare engine run is not the case's execution" case.seed);
  let _, oracle_ms = timed (fun () -> Oracle.check entry ~inputs:case.inputs result) in
  { result; findings; case_ms; engine = { ms; n = case.n; res = o.result }; oracle_ms; case_gc }

(* The engine and oracle shares of [Case.run] over a sample of instances. *)
let cost_metrics costs =
  engine_metrics (List.map (fun c -> c.engine) costs)
  @ [ m "oracle.check_ms_p50" "ms" (Stats.median (List.map (fun c -> c.oracle_ms) costs)) ]
