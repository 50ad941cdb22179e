(** Metrics registry: named counters and histograms with labels,
    snapshotted to JSON or CSV.

    The registry is the machine-readable half of the observability layer:
    run drivers pour their totals into one ({!Preemptdb.Report} does this
    for [Runner.result]) and exporters serialize a point-in-time snapshot.
    Metrics are identified by [(name, labels)]; registering the same pair
    twice returns the same instrument. *)

type t

type labels = (string * string) list

val create : unit -> t

(** {1 Instruments} *)

type counter

val counter : t -> ?labels:labels -> string -> counter
val add : counter -> int -> unit

val attach_histogram : t -> ?labels:labels -> string -> Sim.Histogram.t -> unit
(** Register an externally-owned histogram (e.g. the fabric's delivery
    distribution) so snapshots include it without copying samples. *)

(** {1 Snapshots} *)

val to_json : ?clock:Sim.Clock.t -> t -> Json.t
(** [{"counters": [...], "gauges": [], "histograms": [...]}], each entry
    [{"name", "labels", ...}]; [gauges] is always empty.  Histogram
    entries carry count/min/mean/max and p50/p90/p99/p99.9 in raw units
    (cycles); when [clock] is given, [_us] variants converted to
    microseconds are added. *)

val to_csv : t -> string
(** One row per instrument:
    [kind,name,labels,value,count,p50,p90,p99,p999,max] with empty cells
    where a column does not apply.  Labels are rendered [k=v;k=v]. *)
