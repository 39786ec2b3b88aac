(* In-memory spans for the traced run: recorded by the benchmark around
   its calls into each layer, written out once at the end. *)

module Json = Ftc_journal.Json

type span = {
  id : int;
  parent : int;  (** [-1] for a root. *)
  name : string;  (** The layer, e.g. ["admission.queue_wait"]. *)
  key : int;  (** Ticket, seed or batch the span belongs to. *)
  start : float;  (** Milliseconds on the benchmark's monotonic clock. *)
  stop : float;
}

type t = { mutable next : int; mutable rev : span list }

let create () = { next = 0; rev = [] }

let add t ?(parent = -1) ~name ~key start stop =
  let id = t.next in
  t.next <- id + 1;
  t.rev <- { id; parent; name; key; start; stop } :: t.rev;
  id

let spans t = List.rev t.rev

let to_json s =
  Json.List
    [ Json.Int s.id; Json.Int s.parent; Json.String s.name; Json.Int s.key; Json.Float s.start;
      Json.Float s.stop ]

let of_json = function
  | Json.List [ id; parent; name; key; start; stop ] -> (
      match
        ( Json.to_int id, Json.to_int parent, Json.to_str name, Json.to_int key,
          Json.to_float start, Json.to_float stop )
      with
      | Some id, Some parent, Some name, Some key, Some start, Some stop ->
          Some { id; parent; name; key; start; stop }
      | _ -> None)
  | _ -> None

(* Each span paired with its self time: its duration minus the part of
   that interval its children cover. *)
let with_self spans =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop)) spans;
  List.map
    (fun s -> (s, Stats.self_time ~start:s.start ~stop:s.stop (Hashtbl.find_all children s.id)))
    spans

type row = { layer : string; count : int; total_ms : float; self_ms : float; self_p50_ms : float }

(* One row per span name, heaviest self time first. *)
let self_table spans =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:[] in
      Hashtbl.replace by_name s.name ((s.stop -. s.start, self) :: prev))
    (with_self spans);
  Hashtbl.fold
    (fun layer xs acc ->
      {
        layer;
        count = List.length xs;
        total_ms = List.fold_left (fun a (d, _) -> a +. d) 0. xs;
        self_ms = List.fold_left (fun a (_, s) -> a +. s) 0. xs;
        self_p50_ms = Stats.median (List.map snd xs);
      }
      :: acc)
    by_name []
  |> List.sort (fun a b -> compare b.self_ms a.self_ms)

(* Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one
   process per workload, one thread per key, complete ("X") events. *)
let chrome groups =
  let events =
    List.concat
      (List.mapi
         (fun pid (workload, spans) ->
           Json.Obj
             [ ("name", Json.String "process_name"); ("ph", Json.String "M"); ("pid", Json.Int pid);
               ("args", Json.Obj [ ("name", Json.String workload) ]) ]
           :: List.map
                (fun s ->
                  Json.Obj
                    [ ("name", Json.String s.name); ("ph", Json.String "X"); ("pid", Json.Int pid);
                      ("tid", Json.Int s.key); ("ts", Json.Float (s.start *. 1000.));
                      ("dur", Json.Float ((s.stop -. s.start) *. 1000.));
                      ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]) ])
                spans)
         groups)
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]
