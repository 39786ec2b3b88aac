module Rng = Ftc_rng.Rng

(* Per-node lazy port table, shared by the engine and the reference
   interpreter the tests hold it to, so both resolve destinations
   through literally the same code (and thus the same wiring-rng
   stream). Ports are dense small integers; the peer behind each used port is recorded
   both ways so that the same peer is always seen behind the same local
   port, as a fixed hidden permutation would guarantee.

   The peer -> port direction is an open-addressing table with linear
   probing and the port -> peer direction a dense array: at n = 10^6 a
   delivery resolves ports millions of times per trial, and a generic
   [Hashtbl] costs a [find_opt] allocation plus two dependent cache
   misses per lookup. Tables are allocated on first use so the engine's
   O(n) setup does not pay for nodes that never touch a port. *)

type t = {
  mutable by_port : int array;  (* port -> peer over [0 .. next_port) *)
  mutable next_port : int;
  mutable keys : int array;  (* open addressing: peers, -1 = empty *)
  mutable vals : int array;  (* port behind keys.(slot) *)
  mutable mask : int;  (* capacity - 1; -1 = not yet allocated *)
  mutable complement : int list;
      (** Once most peers are known, the unknown ones in a pre-shuffled
          order; consumed by [fresh_peer]. Empty = not built yet. *)
}

let create () =
  { by_port = [||]; next_port = 0; keys = [||]; vals = [||]; mask = -1; complement = [] }

(* Fibonacci multiplier; peers are arbitrary ints, slots their top bits. *)
let slot_of peer mask = ((peer * 0x2545F4914F6CDD1D) lsr 16) land mask

let rehash t cap' =
  let keys' = Array.make cap' (-1) and vals' = Array.make cap' 0 in
  let mask' = cap' - 1 in
  let old = t.keys in
  for s = 0 to Array.length old - 1 do
    let k = Array.unsafe_get old s in
    if k >= 0 then begin
      let i = ref (slot_of k mask') in
      while Array.unsafe_get keys' !i >= 0 do
        i := (!i + 1) land mask'
      done;
      Array.unsafe_set keys' !i k;
      Array.unsafe_set vals' !i (Array.unsafe_get t.vals s)
    end
  done;
  t.keys <- keys';
  t.vals <- vals';
  t.mask <- mask'

(* Keep load under 1/2; grow the dense array alongside. *)
let ensure_room t =
  if t.mask < 0 then begin
    t.keys <- Array.make 8 (-1);
    t.vals <- Array.make 8 0;
    t.mask <- 7;
    t.by_port <- Array.make 8 (-1)
  end
  else begin
    if 2 * (t.next_port + 1) > t.mask + 1 then rehash t (2 * (t.mask + 1));
    if t.next_port >= Array.length t.by_port then begin
      let a = Array.make (2 * Array.length t.by_port) (-1) in
      Array.blit t.by_port 0 a 0 t.next_port;
      t.by_port <- a
    end
  end

(* Slot where [peer] lives, or the insertion slot (key -1) otherwise. *)
let probe t peer =
  let mask = t.mask and keys = t.keys in
  let i = ref (slot_of peer mask) in
  let k = ref (Array.unsafe_get keys !i) in
  while !k >= 0 && !k <> peer do
    i := (!i + 1) land mask;
    k := Array.unsafe_get keys !i
  done;
  !i

let mem t peer = t.mask >= 0 && t.keys.(probe t peer) = peer

(* The port leading from this node to [peer], opening it if needed. *)
let port_to t peer =
  ensure_room t;
  let s = probe t peer in
  if t.keys.(s) = peer then t.vals.(s)
  else begin
    let p = t.next_port in
    t.next_port <- p + 1;
    t.keys.(s) <- peer;
    t.vals.(s) <- p;
    t.by_port.(p) <- peer;
    p
  end

(* Allocation-free lookup for the engines' hot paths: -1 = unknown. *)
let peer_of_port_int t p = if p >= 0 && p < t.next_port then t.by_port.(p) else -1

let peer_of_port t p = if p >= 0 && p < t.next_port then Some t.by_port.(p) else None

(* Ports are numbered consecutively from 0, so the table's domain is
   exactly [0 .. count - 1]. *)
let count t = t.next_port

(* Opening a fresh port reveals a uniform node among those not already
   behind a used port (and not self). Rejection sampling is O(1) expected
   while used ports are a minority; past n/2 we build the complement once,
   shuffled, and consume it — a uniformly shuffled complement yields
   exactly uniform sampling without replacement, and keeps broadcast-to-
   all linear instead of quadratic. Entries that became known through a
   received message meanwhile are skipped on pop. *)
let fresh_peer wiring_rng t ~n ~self =
  let used = t.next_port in
  if used >= n - 1 then None
  else if used < n / 2 && t.complement = [] then begin
    let rec draw () =
      let peer = Rng.int wiring_rng n in
      if peer = self || mem t peer then draw () else peer
    in
    Some (draw ())
  end
  else begin
    if t.complement = [] then begin
      let remaining = ref [] in
      for peer = n - 1 downto 0 do
        if peer <> self && not (mem t peer) then remaining := peer :: !remaining
      done;
      let arr = Array.of_list !remaining in
      Ftc_rng.Dist.shuffle wiring_rng arr;
      t.complement <- Array.to_list arr
    end;
    let rec pop () =
      match t.complement with
      | [] -> None
      | peer :: rest ->
          t.complement <- rest;
          if mem t peer then pop () else Some peer
    in
    pop ()
  end
