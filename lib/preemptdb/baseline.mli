(** Committed performance baselines and the regression gate.

    {!collect} runs a small fixed suite of deterministic simulations (the
    seeds, scales and workloads are pinned, and the simulator is pure
    integer cycle math), so the headline metrics — throughput, latency
    percentiles, preemption-stage latencies — are bit-identical across
    machines.  The snapshot is committed as [BENCH_baseline.json]; CI
    re-collects and {!diff}s against it, failing on any gated metric that
    moved past tolerance in the worse direction.

    Wall-clock-dependent metrics (simulation rate) are recorded with an
    [info_] prefix: visible in the diff output, excluded from the gate. *)

type t = {
  version : int;  (** schema version of the snapshot format *)
  metrics : (string * float) list;  (** stable order, ["cell.metric"] keys *)
}

val current_version : int

val collect : unit -> t
(** Run the pinned suite (three cells: preemptive mixed workload, Wait
    ablation, preemptible group-commit) and snapshot its headline metrics.
    Takes a few seconds of wall time. *)

val to_json : t -> Obs.Json.t
val write : path:string -> t -> unit
val read : path:string -> (t, string) result

(** One metric's comparison.  [regressed] means: gated (not [info_]),
    present on both sides, and moved beyond tolerance in the worse
    direction — or missing from one side (schema drift is a failure). *)
type verdict = {
  metric : string;
  base : float option;
  fresh : float option;
  delta_pct : float;  (** signed, fresh vs base; [nan] when a side is missing *)
  regressed : bool;
  informational : bool;  (** [info_]-prefixed: shown, never gates *)
}

val diff : base:t -> fresh:t -> tolerance_pct:float -> verdict list
(** Union of both metric sets, in the base's order (fresh-only metrics
    appended).  Direction is by name: a [..._us] metric regresses when it
    rises past the tolerance, any other ([..._ktps], counts) when it falls.
    @raise Invalid_argument on a schema-version mismatch. *)

val regressions : verdict list -> verdict list

val pp_verdicts : Format.formatter -> verdict list -> unit
(** Human-readable table, one line per metric, regressions flagged. *)

val perturb_worse : t -> pct:float -> t
(** Every gated metric moved [pct] percent in its {e worse} direction —
    the perfdiff self-test's injected regression. *)
