type t = {
  mutable count : int;
  mutable sum : int;
  mutable min_value : int;
  mutable max_value : int;
  buckets : int array;
}

let n_buckets = 32

let create () =
  { count = 0; sum = 0; min_value = 0; max_value = 0; buckets = Array.make n_buckets 0 }

(* Bucket 0 holds v <= 0; bucket i in [1, n_buckets-2] holds
   [2^(i-1), 2^i); the last bucket is the overflow, v >= 2^(n_buckets-2).
   Power-of-two boundaries keep [bucket_of] a handful of shifts — cheap
   enough for per-round hot paths. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let bits = ref 0 and x = ref v in
    while !x > 0 do
      incr bits;
      x := !x lsr 1
    done;
    min !bits (n_buckets - 1)
  end

let upper_bound i = if i < 0 then min_int else if i >= n_buckets - 1 then max_int else 1 lsl i

let record t v =
  if t.count = 0 then begin
    t.min_value <- v;
    t.max_value <- v
  end
  else begin
    if v < t.min_value then t.min_value <- v;
    if v > t.max_value then t.max_value <- v
  end;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let sum t = t.sum
let min_value t = t.min_value
let max_value t = t.max_value
let buckets t = Array.copy t.buckets

let copy t =
  {
    count = t.count;
    sum = t.sum;
    min_value = t.min_value;
    max_value = t.max_value;
    buckets = Array.copy t.buckets;
  }

let of_parts ~count ~sum ~min_value ~max_value buckets =
  if Array.length buckets <> n_buckets then invalid_arg "Hist.of_parts: wrong bucket count";
  { count; sum; min_value; max_value; buckets = Array.copy buckets }

(* Approximate quantile: the smallest bucket upper bound covering at
   least [q] of the recorded mass, clamped to the observed maximum so an
   all-in-one-bucket histogram reports something tight. *)
let quantile t q =
  if t.count = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int t.count)) in
    let target = if target < 1 then 1 else if target > t.count then t.count else target in
    let acc = ref 0 and b = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if !acc >= target then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    let hi = upper_bound !b in
    if hi = max_int || hi > t.max_value then t.max_value else hi - 1
  end

let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
