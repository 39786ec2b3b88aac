type mode = Off | Tally | Log

type event =
  | Send of { round : int; src : int; dst : int; bits : int; delivered : bool }
  | Crash of { round : int; node : int }
  | Link_lost of { round : int; src : int; dst : int; bits : int }
  | Queue_dropped of { round : int; src : int; dst : int; bits : int }
  | Ecn_marked of { round : int; src : int; dst : int }
  | Unroutable of { round : int; node : int }

(* Event kinds in the [kind] column. Crash and Unroutable keep their node
   in the [src] column. *)
let k_delivered = 0
and k_undelivered = 1
and k_crash = 2
and k_link_lost = 3
and k_queue_dropped = 4
and k_ecn = 5
and k_unroutable = 6

type counts = {
  mutable sends : int;
  mutable bits : int;
  mutable undelivered : int;
  mutable crashes : int;
  mutable link_lost : int;
  mutable queue_dropped : int;
  mutable ecn_marked : int;
  mutable unroutable : int;
}

type t = {
  log : bool;
  mutable len : int;
  tally : counts;
  (* The log's columns, [len] entries used; empty on a tally. *)
  mutable kind : Bytes.t;
  mutable round : int array;
  mutable src : int array;
  mutable dst : int array;
  mutable bits : int array;
}

let initial_cap = 1024

let create mode =
  let make log cap =
    {
      log;
      len = 0;
      tally =
        {
          sends = 0;
          bits = 0;
          undelivered = 0;
          crashes = 0;
          link_lost = 0;
          queue_dropped = 0;
          ecn_marked = 0;
          unroutable = 0;
        };
      kind = Bytes.create cap;
      round = Array.make cap 0;
      src = Array.make cap 0;
      dst = Array.make cap 0;
      bits = Array.make cap 0;
    }
  in
  match mode with Off -> None | Tally -> Some (make false 0) | Log -> Some (make true initial_cap)

let grow t =
  let cap = 2 * Bytes.length t.kind in
  let g a =
    let a' = Array.make cap 0 in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.kind <- Bytes.extend t.kind 0 (cap - Bytes.length t.kind);
  t.round <- g t.round;
  t.src <- g t.src;
  t.dst <- g t.dst;
  t.bits <- g t.bits

let push t k ~round ~src ~dst ~bits =
  let i = t.len in
  if t.log then begin
    if i = Bytes.length t.kind then grow t;
    Bytes.unsafe_set t.kind i (Char.unsafe_chr k);
    t.round.(i) <- round;
    t.src.(i) <- src;
    t.dst.(i) <- dst;
    t.bits.(i) <- bits
  end;
  t.len <- i + 1

let send t ~round ~src ~dst ~bits ~delivered =
  let c = t.tally in
  c.sends <- c.sends + 1;
  c.bits <- c.bits + bits;
  if not delivered then c.undelivered <- c.undelivered + 1;
  push t (if delivered then k_delivered else k_undelivered) ~round ~src ~dst ~bits

let crash t ~round ~node =
  t.tally.crashes <- t.tally.crashes + 1;
  push t k_crash ~round ~src:node ~dst:0 ~bits:0

let link_lost t ~round ~src ~dst ~bits =
  t.tally.link_lost <- t.tally.link_lost + 1;
  push t k_link_lost ~round ~src ~dst ~bits

let queue_dropped t ~round ~src ~dst ~bits =
  t.tally.queue_dropped <- t.tally.queue_dropped + 1;
  push t k_queue_dropped ~round ~src ~dst ~bits

let ecn_marked t ~round ~src ~dst =
  t.tally.ecn_marked <- t.tally.ecn_marked + 1;
  push t k_ecn ~round ~src ~dst ~bits:0

let unroutable t ~round ~node =
  t.tally.unroutable <- t.tally.unroutable + 1;
  push t k_unroutable ~round ~src:node ~dst:0 ~bits:0

let add t = function
  | Send { round; src; dst; bits; delivered } -> send t ~round ~src ~dst ~bits ~delivered
  | Crash { round; node } -> crash t ~round ~node
  | Link_lost { round; src; dst; bits } -> link_lost t ~round ~src ~dst ~bits
  | Queue_dropped { round; src; dst; bits } -> queue_dropped t ~round ~src ~dst ~bits
  | Ecn_marked { round; src; dst } -> ecn_marked t ~round ~src ~dst
  | Unroutable { round; node } -> unroutable t ~round ~node

let counts t = { t.tally with sends = t.tally.sends }

let length t = t.len

let is_log t = t.log

let event_at t i =
  let round = t.round.(i) and src = t.src.(i) and dst = t.dst.(i) and bits = t.bits.(i) in
  match Char.code (Bytes.get t.kind i) with
  | 0 -> Send { round; src; dst; bits; delivered = true }
  | 1 -> Send { round; src; dst; bits; delivered = false }
  | 2 -> Crash { round; node = src }
  | 3 -> Link_lost { round; src; dst; bits }
  | 4 -> Queue_dropped { round; src; dst; bits }
  | 5 -> Ecn_marked { round; src; dst }
  | _ -> Unroutable { round; node = src }

let fold f acc t =
  if not t.log then invalid_arg "Trace: a tally keeps no events to read";
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (event_at t i)
  done;
  !acc

let iter f t = fold (fun () e -> f e) () t

let pp_event ppf = function
  | Send { round; src; dst; bits; delivered } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits%s)" round src dst bits
        (if delivered then "" else ", lost")
  | Crash { round; node } -> Format.fprintf ppf "r%d: crash %d" round node
  | Link_lost { round; src; dst; bits } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits, link lost)" round src dst bits
  | Queue_dropped { round; src; dst; bits } ->
      Format.fprintf ppf "r%d: %d -> %d (%d bits, queue dropped)" round src dst bits
  | Ecn_marked { round; src; dst } ->
      Format.fprintf ppf "r%d: %d -> %d ecn-marked" round src dst
  | Unroutable { round; node } -> Format.fprintf ppf "r%d: %d fresh-port send unroutable" round node
