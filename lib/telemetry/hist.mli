(** Log-scale (power-of-two) histogram of non-negative integer samples.

    Fixed [n_buckets] buckets: bucket [0] holds every value [<= 0];
    bucket [i] for [1 <= i <= n_buckets - 2] holds the half-open range
    [[2^(i-1), 2^i)]; the last bucket is the overflow and holds every
    value [>= 2^(n_buckets-2)]. A record is a few shifts and adds — no
    allocation — so histograms are safe on per-round hot paths. Not
    thread-safe by itself; {!Registry} serialises access. *)

type t

val n_buckets : int

val create : unit -> t

val bucket_of : int -> int
(** The bucket index a value lands in. *)

val upper_bound : int -> int
(** Exclusive upper bound of a bucket ([max_int] for the overflow). *)

val record : t -> int -> unit

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int
(** 0 when empty. *)

val mean : t -> float

val buckets : t -> int array
(** A copy. *)

val copy : t -> t

val of_parts : count:int -> sum:int -> min_value:int -> max_value:int -> int array -> t
(** Rebuild a histogram from exported parts (bucket array length must be
    [n_buckets]); used by the JSONL importer. *)

val quantile : t -> float -> int
(** Approximate (bucket-resolution) quantile, clamped to the observed
    maximum; 0 when empty. *)
