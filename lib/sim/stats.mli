(** Exact, array-based percentile — the reference the histogram property
    tests check {!Histogram} against; hot-path recording uses
    {!Histogram}. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], nearest-rank on a sorted copy.
    @raise Invalid_argument on empty input or [p] out of range *)
