(* Pure helpers behind the layered benchmark's numbers. *)

(* Linear interpolation between closest ranks (Hyndman–Fan type 7, the
   default of R and NumPy): [quantile xs 0.5] is the usual median, and
   every reported value lies between two observed samples. *)
let quantile xs p =
  if xs = [] then invalid_arg "Stats.quantile: no samples";
  if not (p >= 0. && p <= 1.) then invalid_arg "Stats.quantile: p outside [0, 1]";
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let h = float_of_int (Array.length a - 1) *. p in
  let lo = int_of_float h in
  let hi = min (Array.length a - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let iqr xs = quantile xs 0.75 -. quantile xs 0.25

(* Relative cost of "on" over "off" for paired measurements of the same
   work, in percent: the median of the per-pair differences, which
   cancels what the pair shares (the unit's own work, slow phases of the
   machine), and their IQR, which says whether the median is resolved. *)
let paired_diff_pct pairs =
  let d = List.map (fun (off, on) -> 100. *. (on -. off) /. off) pairs in
  (median d, iqr d)

(* Length of the union of [intervals] clipped to [start, stop]. *)
let covered ~start ~stop intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec go acc (ca, cb) = function
    | [] -> acc +. (cb -. ca)
    | (a, b) :: rest ->
        if a <= cb then go acc (ca, Float.max cb b) rest else go (acc +. (cb -. ca)) (a, b) rest
  in
  match List.sort compare clipped with [] -> 0. | first :: rest -> go 0. first rest

let self_time ~start ~stop children = stop -. start -. covered ~start ~stop children

(* Ring timestamps come from the server's clock, client timestamps from
   the load generator's. For each ticket the server stamped [Admitted]
   somewhere inside the client's submit → [Accepted] round trip; taking
   the midpoint of that window as the admit instant and the median over
   tickets gives the offset that maps ring time onto client time. *)
let clock_offset samples =
  median
    (List.map (fun (sent, accepted, admitted) -> ((sent +. accepted) /. 2.) -. admitted) samples)
