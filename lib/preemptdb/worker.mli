(** Worker thread: one pinned core running transaction programs under the
    configured scheduling policy (§4.1).

    Each worker owns one transaction context and one scheduling queue per
    priority level (two levels — regular + preemptive — reproduce the
    paper; three enable the §5 multi-level extension, where an [Urgent]
    transaction may preempt an in-progress [High] one by switching to a
    third context).  A worker executes as a self-scheduling DES actor
    ({!Sim.Des.add_actor}, registered in worker-id order): an activation
    runs micro-ops, advancing a private local clock, until its next step
    is no longer the schedule's next item under the tie rule
    ({!Sim.Des.may_step}), it blocks, or it goes idle.  A step that
    commutes with every other worker (a snapshot read, [Compute],
    [Yield_hint], or a probe or scan of an index no class writes) may run
    ahead of other workers by less than the DES's floor
    ({!Sim.Des.may_run_ahead}): the least latency of the paths declared
    where they are built, a channel message or a log flush.  With neither
    there is no floor, and such a step stops only at the next event or
    the horizon.  No step sends a user interrupt or wakes another worker:
    the scheduler's events, flush and gate resolution, 2PC dispatch and
    fault storms do, each pairing its senduipi with {!wake}; the DES
    fails a step's push under the floor and a step's wake of another
    worker.  The worker declares a path of latency 0, lock-step, for an
    event sink ({!create}) and a region-stall fault
    ({!set_region_stall}), whose state every worker's steps share.  The
    program runs
    with this worker as its stepper ({!Workload.Program.start}), so a
    step the loop would take at once is taken inside the charge, without
    suspending the program.

    Scheduling paths (Figure 5, generalized):
    - {e regular}: context 0 drains queues highest level first (subject to
      the starvation threshold under [Preempt]), one transaction at a
      time;
    - {e preemptive}: a recognized user interrupt passively switches to
      the context of the highest waiting level strictly above the running
      request's level; that context drains its own queue and actively
      switches back to the highest paused context;
    - {e cooperative}: the regular context checks the higher-priority
      queues at yield points and serves them on their contexts via
      [swap_context]. *)

type stats = {
  mutable passive_switches : int;
  mutable active_switches : int;
  mutable drops_region : int;  (** interrupts rejected inside §4.4 regions *)
  mutable drops_window : int;
  mutable uintr_recognized : int;
  mutable coop_yield_checks : int;
  mutable coop_yields_taken : int;
  mutable busy_cycles : int;
  mutable hp_context_cycles : int;  (** cycles on contexts above level 0 *)
  mutable retries : int;  (** conflict-aborted programs restarted *)
  mutable exhausted : int;
      (** terminal aborts whose retry budget ran out (retryable outcome on
          the last allowed attempt) *)
  mutable gc_preempted : int;
      (** passive switches that landed while a maintenance (GC) request was
          running — the paper's preempt-the-background-work-in-place count *)
  mutable dur_parks : int;
      (** commits that parked on an LSN and released their context *)
  mutable dur_unparks : int;  (** parked commits resumed by a flush uintr *)
  mutable dur_immediate : int;
      (** commits whose LSN was already durable at publish (no wait) *)
  mutable dur_block_cycles : int;
      (** cycles burned spinning in blocking-commit mode (ablation) *)
  mutable gate_parks : int;
      (** 2PC gate waits (vote collection / decision delivery) that parked
          the context and released it *)
  mutable gate_unparks : int;  (** parked gate waits resumed by resolution *)
  mutable gate_immediate : int;
      (** gate waits whose gate was already resolved at the wait (no park) *)
  mutable gate_block_cycles : int;
      (** cycles burned spinning in blocking-gate mode (ablation) *)
}

type t

val create :
  ?obs:Obs.Sink.t ->
  ?prof:Obs.Profiler.t ->
  des:Sim.Des.t ->
  cfg:Config.t ->
  fabric:Uintr.Fabric.t ->
  metrics:Metrics.t ->
  eng:Storage.Engine.t ->
  id:int ->
  unit ->
  t
(** Registers the worker's receiver in the fabric's UITT.  The worker has
    [cfg.n_priority_levels] contexts and queues.  [obs], when given,
    receives the worker's typed timeline events (transaction lifecycle,
    queue traffic, interrupt recognitions; context switches are emitted by
    {!Uintr.Switch} on the same sink).  [prof] is the shared cycle-accounting
    profiler; every cycle the worker charges is attributed to a
    (worker × phase) bucket on it (a private throwaway profiler is used
    when omitted, so accounting is always on).  The sink numbers its
    records in host order, so [obs] declares a path of latency 0
    ({!Sim.Des.add_path}): the workers then step in lock-step. *)

val id : t -> int
val uitt_index : t -> int
(** Index the scheduling thread targets with [senduipi]. *)

val hw : t -> Uintr.Hw_thread.t
val stats : t -> stats

val set_op_probe : t -> (t -> Workload.Program.op -> unit) option -> unit
(** Install (or clear) a hook called after every executed micro-op — the
    simulated instruction boundary.  The schedule-exploration harness
    counts boundaries here and forces preemption points by posting to the
    worker's receiver ([Uintr.Receiver.post]), which the very next
    boundary's recognition check observes.  The probe must not switch
    contexts or touch the queues itself.  Each worker's probe calls come
    in its own step order.  Calls from different workers come in global
    virtual-time order only in lock-step: a probe whose state is shared
    across workers must declare a path of latency 0
    ({!Sim.Des.add_path}), as the harness does; elsewhere a commuting
    step may run ahead of another worker's. *)

val free_slots : t -> level:int -> int
val enqueue : t -> level:int -> Request.t -> bool
(** [false] when the queue is full.  The caller must {!wake} the worker.
    @raise Invalid_argument on an unknown level. *)

val lp_free_slots : t -> int
val enqueue_hp : t -> Request.t -> bool
val enqueue_lp : t -> Request.t -> bool
(** Two-level conveniences (level 1 / level 0). *)

val wake : t -> unit
(** Ensure an activation is scheduled (idempotent; no-op after {!kill}).
    @raise Failure inside another worker's step ({!Sim.Des.wake_actor}). *)

val kill : t -> unit
(** Fail-stop the worker (primary crash under failover): subsequent
    activations and wakes are no-ops, enqueues are refused, and queued /
    in-flight / parked requests are dropped (counted in
    {!dropped_at_kill}).  Irreversible. *)

val killed : t -> bool

val dropped_at_kill : t -> int
(** Requests discarded by {!kill} — they died with the primary and are
    excluded from conservation ledgers. *)

val starvation_level : t -> now:int -> float
(** L = Th / (T1 − T0) of the paper (Figure 7), anchored at the most recent
    low-priority transaction start; cycles spent on requests above level 0
    accumulate into Th. *)

val mode : t -> Config.policy
(** The worker's live policy.  Starts as [cfg.policy]; the scheduling
    thread's graceful-degradation logic may override it per worker. *)

val set_mode : t -> Config.policy -> unit
(** Override the live policy (graceful degradation / recovery).  Takes
    effect at the next micro-op boundary; in-flight transactions are not
    disturbed. *)

val set_cost_multiplier_pct : t -> int -> unit
(** Straggler fault model: every subsequent cycle charge is scaled by
    [pct/100] (100 = nominal).
    @raise Invalid_argument when [pct < 1]. *)

val set_durability : t -> blocking:bool -> Durability.Daemon.t option -> unit
(** Wire the group-commit daemon: [Commit_wait] micro-ops consult it for
    the ack decision.  [blocking] selects the ablation — the context spins
    re-checking durability instead of parking (the slot stays occupied).
    [None] detaches (commits ack immediately, as without durability).  The
    daemon declared its device's path when it was built
    ({!Durability.Daemon.create}). *)

val set_gates : t -> blocking:bool -> Uintr.Gate.t option -> unit
(** Wire a 2PC gate registry: [Gate_wait] micro-ops consult it.  [blocking]
    selects the ablation — the context spins re-checking the gate instead
    of parking.  [None] detaches ([Gate_wait] degrades to a plain charged
    op, acking immediately). *)

val parked_requests : t -> int
(** Requests parked on a commit LSN or a 2PC gate awaiting a wake-up
    notification — they hold no context slot but still count toward
    conservation. *)

val set_region_stall : t -> (unit -> int) option -> unit
(** Install (or clear) a fault hook consulted at each micro-op boundary
    executed inside a non-preemptible region; the returned extra cycles are
    charged immediately (0 = no stall).  Distinct from {!set_op_probe}, so
    the check harness and the fault injector compose.  [Some] declares a
    path of latency 0 ({!Sim.Des.add_path}): the hook draws a shared RNG
    inside steps.  The DES stays lock-step after the hook is cleared. *)

val queued_requests : t -> int
(** Requests waiting in this worker's queues (all levels) — a
    request-conservation ledger term. *)

val inflight_requests : t -> int
(** Requests occupying a context slot (running, paused, or backing off)
    plus requests parked on a commit LSN ({!parked_requests}). *)
