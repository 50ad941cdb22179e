(** Machine-readable run results: {!Runner.result} → JSON / CSV.

    The JSON document is self-describing — configuration, per-class
    latency percentiles and throughput, per-window time-series, summed
    worker counters, uintr fabric totals, and storage-engine stats — so a
    plotting script needs no knowledge of the simulator.  The flat metric
    sections (counters / histograms) are built on an {!Obs.Registry}
    snapshot; the CSV export is that same registry rendered row-per-metric
    for spreadsheet import.

    The registry holds the run's totals: [worker_*] counters (all ten
    {!Runner.worker_totals} fields), [uintr_sends], [drops] /
    [backlog_left] / [skipped_starved] / [des_events], [engine_*] storage
    counters, per-class [txn_committed] / [txn_aborted] counters and
    latency histograms ([latency_e2e] / [latency_sched], labelled
    [class=<label>]), and the fabric's delivery histogram. *)

val to_json : ?name:string -> Runner.result -> Obs.Json.t
(** Full document:
    [{"name", "config": {...}, "horizon_ms", "classes": [...],
      "timeseries": {label: [...]}, "metrics": {...}}].
    Each class entry carries committed/aborted, throughput_ktps, and
    p50/p90/p99/p999 end-to-end + scheduling latencies in µs (plus the
    geometric mean); [timeseries] holds the per-window series from
    {!Metrics.timelines}; [metrics] is the registry snapshot. *)

val to_csv : Runner.result -> string
(** The registry snapshot as CSV
    ([kind,name,labels,value,count,p50,p90,p99,p999,max]). *)
