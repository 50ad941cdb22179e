(** Run one workload under one perturbed schedule with every oracle armed.

    The harness assembles the production stack ({!Preemptdb.Runner.assemble}
    — real DES, engine, uintr fabric, workers, scheduling thread) and
    instruments it without forking any logic:
    - the {!Schedule.t} jitter spec replaces the fabric's delivery-latency
      model (recording every draw);
    - forced preemption points are injected by counting global micro-op
      boundaries in the worker op probe and posting to the executing
      worker's receiver — recognition, switching and region discipline all
      go through the production path;
    - the engine observer feeds {!Footprint}, the switch monitor feeds
      {!Monitor}, the DES probe feeds {!Recorder}.

    After the run the instrumentation is torn down and the end-of-run
    oracles ({!Oracle}) are evaluated.  A run that raises is torn down
    too and reported as an [exception] violation, with its trace and
    counters up to the raise. *)

type workload =
  | Tpcc  (** NewOrder/Payment high-priority over a full TPC-C low-priority mix *)
  | Selftest
      (** contended read-compute-increment counters (slow low-priority,
          fast high-priority) plus a conservation oracle: the canonical
          lost-update workload for fault-injection self-tests *)

type run = {
  schedule : Schedule.t;
  workload : workload;
  fault : Storage.Engine.fault option;  (** the armed fault, for replay *)
  plan : Faults.Plan.t option;  (** the armed fault plan, for replay *)
  reclaim : bool;  (** epoch reclamation armed (audited), for replay *)
  versions_reclaimed : int;  (** audited unlinks' total dropped versions *)
  violations : Violation.t list;
  trace_hash : int64;
  hash_hex : string;
  ops : int;  (** micro-op boundaries executed *)
  forced_fired : int list;  (** forced points that actually fired *)
  commits : int;
  aborts : int;
  switches : int;
  passive_switches : int;
  uintr_recognized : int;
  des_events : int;
  uintr_lost : int;  (** deliveries the fault plan dropped *)
  uintr_duplicated : int;
  shed : int;  (** backlog entries deadline-shed *)
  watchdog_resends : int;
  watchdog_giveups : int;
  degrade_enters : int;
  degrade_exits : int;
  exhausted : int;  (** retry budgets that ran out *)
  decisions : string list;  (** first recorded decisions, verbatim *)
}

val run :
  ?fault:Storage.Engine.fault ->
  ?plan:Faults.Plan.t ->
  ?reclaim:bool ->
  ?workload:workload ->
  Schedule.t ->
  run
(** Execute one instrumented run.  Its forced-preemption counter and
    observers are shared by every worker's steps, so it declares a path
    of latency 0 ({!Sim.Des.add_path}): the workers step in lock-step.
    [fault] arms a deliberate engine bug (checker self-test).  A run that
    raises (an armed fault can) is a failing run like any other: its
    violations are the switch monitor's and an [exception] one, since
    the other oracles need a finished run.  [plan] installs the {!Faults.Injector} against
    the assembly and arms the full resilience stack
    ({!Preemptdb.Config.with_resilience}) — faulty runs go through every
    oracle, including the request-conservation ledger.  [reclaim] (default
    false) arms epoch-based version reclamation at a checker-fast cadence
    with the audit trail on, and adds the {!Oracle.reclaim_safety} oracle;
    forced preemption points then also land inside GC chunks. *)

val failed : run -> bool

val replay : run -> (unit, string) result
(** Re-run the run's schedule with its fault, plan, reclaim flag and
    workload, and compare trace hashes: [Error] describes the divergence
    if the replay is not bit-identical. *)

val report_json : run -> Obs.Json.t
(** The full machine-readable report (schedule, hash, counters,
    violations, decision sample).  Deterministic: contains no wall-clock
    timestamps, so equal runs produce byte-identical documents. *)

val of_report_json :
  Obs.Json.t ->
  ( Schedule.t
    * workload
    * Storage.Engine.fault option
    * Faults.Plan.t option
    * bool
    * string,
    string )
  result
(** Extract (schedule, workload, fault, fault plan, reclaim armed,
    expected trace hash) from a report — the replay input.  [reclaim]
    defaults to false for reports predating it. *)
