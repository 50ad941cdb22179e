(** Post-run reporting for a sharded cluster.

    Aggregates (total kTPS, cross-shard commit rate, NewOrderX latency
    percentiles) are the gated experiment metrics; per-shard breakdowns
    are emitted under [info_]-prefixed JSON keys so the perf-baseline
    diff treats them as informational. *)

val total_ktps : Cluster.t -> float
(** Origin-side committed kTPS summed over shards
    ({!Cluster.coordinator_labels} only — participant slices are halves of
    already-counted transactions). *)

val label_p99_us : Cluster.t -> string -> float option
(** Worst per-shard p99 latency of a metrics class, µs. *)

val to_json : Cluster.t -> Obs.Json.t
