(** Log-bucketed latency histogram (HDR-histogram style).

    Records non-negative [int64] samples (cycle counts) into buckets whose
    width grows geometrically: each power-of-two range is split into a fixed
    number of linear sub-buckets, bounding relative quantile error by
    [1 / sub_buckets].  Constant memory, O(1) record. *)

type t

val create : ?sub_buckets:int -> unit -> t
(** [sub_buckets] (default 64, must be a power of two >= 2) controls
    precision: relative error of reported quantiles is at most
    [1 / sub_buckets]. *)

val record : t -> int64 -> unit
(** Record one sample.  Negative samples are clamped to 0. *)

val count : t -> int
val min_value : t -> int64
(** @raise Invalid_argument if empty *)

val max_value : t -> int64
(** @raise Invalid_argument if empty *)

val mean : t -> float
(** Arithmetic mean of recorded samples (exact, not bucketed).
    @raise Invalid_argument if empty *)

val total : t -> float
(** Sum of all recorded samples. *)

val percentile : t -> float -> int64
(** [percentile t p] with [p] in [\[0, 100\]]: an upper bound on the value at
    the given percentile, accurate to the bucket width.
    @raise Invalid_argument if empty or [p] out of range. *)

val merge_into : src:t -> dst:t -> unit
(** Add all of [src]'s samples into [dst].  Requires equal [sub_buckets]. *)

val reset : t -> unit

val is_empty : t -> bool
