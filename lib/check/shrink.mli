(** Delta-debug a failing schedule to a minimal reproducer.

    Simplification ladder, each step kept only if the schedule still fails:
    drop the delivery jitter, materialize a periodic forced-preemption
    train into the explicit point list that actually fired, ddmin that
    list (classic delta debugging with complement testing and granularity
    doubling), then halve the horizon while the failure persists. *)

type result = {
  schedule : Schedule.t;  (** the minimized failing schedule *)
  run : Harness.run;  (** its (failing) run *)
  evals : int;  (** harness runs spent shrinking *)
}

val minimize : ?max_evals:int -> Harness.run -> result
(** [minimize failing_run] re-runs it with its own workload, fault, plan
    and reclaim flag; [max_evals] bounds the total harness runs (default
    150).  The failing run itself is returned if nothing smaller still
    fails.  A variant whose run raises (an armed engine fault can) fails
    with an [exception] violation like any other ({!Harness.run}). *)
