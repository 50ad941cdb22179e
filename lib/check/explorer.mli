(** Schedule exploration: run the same workload under many perturbed
    schedules and collect oracle verdicts.

    Two strategies:
    - {!fuzz}: seeded-random derivation of schedules from a base — fresh
      seeds, jitter spreads from 0 to 150%, periodic forced-preemption
      trains of varying period/phase;
    - {!exhaustive}: bounded-exhaustive enumeration of {e single} forced
      preemption points — a pilot run counts the micro-op boundaries, then
      one run per point (strided to fit the budget) forces a preemption at
      exactly that boundary. *)

type outcome = {
  explored : int;
  total_commits : int;
  total_forced : int;
  failing : int;
  first_failure : Harness.run option;
}

val fuzz :
  ?fault:Storage.Engine.fault ->
  ?plan:Faults.Plan.t ->
  ?reclaim:bool ->
  ?workload:Harness.workload ->
  budget:int ->
  base:Schedule.t ->
  unit ->
  outcome
(** Run [budget] schedules: the base first, then derived perturbations.
    Stops early at the first failing run (it is the reproducer).  [plan]
    applies the same fault plan to every run (fault-matrix mode);
    [reclaim] arms audited epoch reclamation in every run (see
    {!Harness.run}). *)

val exhaustive :
  ?fault:Storage.Engine.fault ->
  ?plan:Faults.Plan.t ->
  ?reclaim:bool ->
  ?workload:Harness.workload ->
  budget:int ->
  base:Schedule.t ->
  unit ->
  outcome
(** Pilot + up to [budget] single-point runs.  When the boundary count
    exceeds the budget the points are strided evenly. *)

val replay : Harness.run -> (unit, string) result
(** Re-run the run's schedule and compare trace hashes: [Error] describes
    the divergence if the replay is not bit-identical. *)
