type value = Counter of int | Gauge of int | Hist of Hist.t

type metric = M_counter of int ref | M_gauge of int ref | M_hist of Hist.t

type t = {
  on : bool;
  lock : Mutex.t;
  metrics : (string, metric) Hashtbl.t;
}

let create () = { on = true; lock = Mutex.create (); metrics = Hashtbl.create 64 }

(* The disabled registry is a shared singleton every operation bails out
   of after one immediate bool test — the near-zero-cost "off" switch. *)
let disabled = { on = false; lock = Mutex.create (); metrics = Hashtbl.create 1 }

let enabled t = t.on

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let wrong_kind name = invalid_arg (Printf.sprintf "Registry: %s registered with another kind" name)

let incr t name v =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (M_counter r) -> r := !r + v
        | Some _ -> wrong_kind name
        | None -> Hashtbl.replace t.metrics name (M_counter (ref v)))

let set_gauge t name v =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (M_gauge r) -> r := v
        | Some _ -> wrong_kind name
        | None -> Hashtbl.replace t.metrics name (M_gauge (ref v)))

let gauge_max t name v =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (M_gauge r) -> if v > !r then r := v
        | Some _ -> wrong_kind name
        | None -> Hashtbl.replace t.metrics name (M_gauge (ref v)))

let observe t name v =
  if t.on then
    locked t (fun () ->
        match Hashtbl.find_opt t.metrics name with
        | Some (M_hist h) -> Hist.record h v
        | Some _ -> wrong_kind name
        | None ->
            let h = Hist.create () in
            Hist.record h v;
            Hashtbl.replace t.metrics name (M_hist h))

let snapshot t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | M_counter r -> Counter !r
            | M_gauge r -> Gauge !r
            | M_hist h -> Hist (Hist.copy h)
          in
          (name, v) :: acc)
        t.metrics [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)
